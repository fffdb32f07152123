//! # mmm-bigint — arbitrary-precision unsigned integers
//!
//! A self-contained big-integer library underpinning the
//! `montgomery-systolic` reproduction of Örs et al. (IPDPS 2003).
//!
//! The simulated hardware operates on raw bit vectors; everything around
//! it — reference Montgomery arithmetic, RSA key generation, ECC field
//! elements, and every test oracle — needs multi-precision integers.
//! No big-integer crate is available in the sanctioned offline set, so
//! this crate implements one from scratch:
//!
//! * [`Ubig`] — little-endian `u64`-limb unsigned integer,
//! * schoolbook and Karatsuba multiplication ([`arith`]),
//! * Knuth Algorithm D division ([`divrem`]),
//! * modular arithmetic: `modadd`/`modsub`/`modmul`/`modpow`/`modinv`
//!   ([`modular`]),
//! * a word-level CIOS Montgomery multiplier used as a second,
//!   independently-derived oracle ([`montgomery_word`]),
//! * Miller–Rabin primality testing and random prime generation
//!   ([`prime`]), and
//! * uniform random integer sampling ([`random`]).
//!
//! ## Quick example
//!
//! ```
//! use mmm_bigint::Ubig;
//!
//! let a = Ubig::from_dec("123456789012345678901234567890").unwrap();
//! let b = Ubig::from(42u64);
//! let (q, r) = a.divrem(&b);
//! assert_eq!(&q * &b + &r, a);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arith;
pub mod bytes;
pub mod ct;
pub mod divrem;
pub mod fmt;
pub mod limbs;
pub mod modular;
pub mod montgomery_word;
pub mod prime;
pub mod random;
pub mod transpose;
pub mod ubig;

pub use ct::Choice;
pub use montgomery_word::WordMontgomery;
pub use transpose::transpose64;
pub use ubig::Ubig;
