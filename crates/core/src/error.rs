//! The workspace error type: every way a serving-path call can reject
//! its input, as a value instead of a panic.
//!
//! The original research-harness surface validated with `assert!` —
//! fine for experiments, fatal for a server where one unreduced
//! message from one client must not abort the process. The fallible
//! entry points (`try_mont_mul_batch`, `BatchModExp::try_modexp`,
//! `try_modexp_many`, `mmm-rsa`'s `KeyedSession`) return [`MmmError`]
//! instead; the panicking entry points that remain (engine-level
//! `mont_mul_batch`, the `new` constructors) are thin wrappers that
//! delegate to them and `panic!` with the error's
//! [`Display`](std::fmt::Display) text, so their messages (asserted by
//! the existing test suite) are unchanged.
//!
//! Variants carry enough structure to act on programmatically — most
//! importantly [`MmmError::OperandOutOfRange`] names the offending
//! **lane**, so a request aggregator can bounce exactly one client's
//! request instead of the whole shard.

use crate::montgomery::MontgomeryParams;
use mmm_bigint::Ubig;

/// Which bound an out-of-range operand violated. The engine layer
/// (Algorithm 2) accepts operands `< 2N`; the exponentiation and RSA
/// layers require fully reduced residues `< N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperandBound {
    /// The Algorithm 2 operand bound `2N` (Montgomery representatives).
    TwoN,
    /// The reduced-residue bound `N` (messages, ciphertexts,
    /// signatures).
    N,
}

/// Everything a fallible entry point can reject, implementing
/// [`std::error::Error`]. See the module docs for the
/// panicking-wrapper relationship.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MmmError {
    /// An input value exceeded its bound; `lane` is the index **in the
    /// caller's slice** (not shard-local), so the offending request is
    /// directly addressable.
    OperandOutOfRange {
        /// Index of the offending value in the input slice.
        lane: usize,
        /// The bound that was violated.
        bound: OperandBound,
    },
    /// Two parallel input slices (operands/exponents/signatures)
    /// disagree in length.
    LengthMismatch {
        /// Length of the first slice.
        left: usize,
        /// Length of the second slice.
        right: usize,
    },
    /// A batch call received no lanes at all.
    EmptyBatch,
    /// A single batch call exceeded the engine's lane capacity (shard
    /// through the `*_many` entry points instead).
    BatchTooWide {
        /// Lanes in the rejected call.
        lanes: usize,
        /// The engine's capacity.
        max_lanes: usize,
    },
    /// The bit-sliced systolic backend was requested for parameters at
    /// which the array can drop a carry (see
    /// [`MontgomeryParams::is_hardware_safe`]).
    HardwareUnsafeWidth {
        /// The datapath width of the rejected parameters.
        l: usize,
    },
    /// Montgomery arithmetic requires an odd modulus.
    EvenModulus,
    /// The modulus must be at least 3.
    ModulusTooSmall,
    /// The modulus does not fit the requested datapath width.
    WidthTooNarrow {
        /// Bit length of the modulus.
        bits: usize,
        /// The requested width.
        l: usize,
    },
    /// The datapath width is below the architectural minimum of 3.
    WidthTooSmall {
        /// The requested width.
        l: usize,
    },
    /// A fixed-window width outside the supported `1..=8` range.
    WindowOutOfRange {
        /// The rejected window width.
        window: usize,
    },
    /// An invalid configuration value (builder argument or environment
    /// variable), with a human-readable description.
    Config(String),
    /// A serving front-end's bounded request queue was full — the
    /// backpressure signal. The caller should shed load or retry after
    /// a backoff; the server deliberately bounces instead of buffering
    /// without limit.
    Overloaded {
        /// The queue bound that was hit.
        capacity: usize,
    },
    /// A blocking operation (queue admission or response wait) did not
    /// complete within the caller's timeout.
    DeadlineExceeded,
    /// The request was accepted but its flush panicked inside a
    /// serving worker. The panic was isolated — the worker restarted
    /// and every request of the failed shard received this error
    /// instead of a wrong answer (or no answer at all).
    WorkerPanicked,
    /// The serving front-end is shutting down (or has stopped) and no
    /// longer admits requests. Requests accepted *before* shutdown are
    /// still drained and answered.
    Stopped,
    /// The arithmetic integrity layer ([`crate::verify`]) detected a
    /// corrupted result on this lane — and the one verified retry on a
    /// fallback backend failed too — so the faulty value was withheld
    /// instead of released (the Bellcore/Lenstra fault-attack
    /// countermeasure: a wrong CRT plaintext leaks the private key).
    IntegrityViolation {
        /// Index of the corrupted lane in the caller's input slice.
        lane: usize,
    },
    /// An affine point does not satisfy its curve equation
    /// `y² = x³ + ax + b (mod p)` — the ECC tenant's input rejection
    /// (a malformed or maliciously crafted public key must bounce as a
    /// value, never enter the scalar-multiplication pipeline).
    PointNotOnCurve {
        /// Index of the offending point in the caller's input slice
        /// (0 for single-point constructors).
        lane: usize,
    },
    /// The short-Weierstrass discriminant `4a³ + 27b²` vanishes: the
    /// "curve" is singular and its point set is not a group.
    SingularCurve,
    /// An ECC scalar outside `[1, group order)` — e.g. an ECDH private
    /// key of 0, which would map every peer key to the identity.
    ScalarOutOfRange {
        /// Index of the offending scalar in the caller's input slice.
        lane: usize,
    },
}

impl std::fmt::Display for MmmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmmError::OperandOutOfRange {
                lane,
                bound: OperandBound::TwoN,
            } => write!(f, "lane {lane}: operands must be < 2N"),
            MmmError::OperandOutOfRange {
                lane,
                bound: OperandBound::N,
            } => write!(f, "lane {lane}: message must be < N"),
            MmmError::LengthMismatch { left, right } => {
                write!(f, "batch length mismatch: {left} vs {right}")
            }
            MmmError::EmptyBatch => write!(f, "empty batch"),
            MmmError::BatchTooWide { lanes, max_lanes } => {
                write!(
                    f,
                    "batch has {lanes} lanes but the engine accepts at most {max_lanes} lanes"
                )
            }
            MmmError::HardwareUnsafeWidth { l } => {
                write!(f, "modulus is not hardware-safe at width l={l}")
            }
            MmmError::EvenModulus => write!(f, "N must be odd"),
            MmmError::ModulusTooSmall => write!(f, "N must be at least 3"),
            MmmError::WidthTooNarrow { bits, l } => {
                write!(f, "N has {bits} bits but the datapath width is l={l}")
            }
            MmmError::WidthTooSmall { l } => {
                write!(f, "width l must be at least 3 (got {l})")
            }
            MmmError::WindowOutOfRange { window } => {
                write!(f, "window must be in 1..=8 (got {window})")
            }
            MmmError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            MmmError::Overloaded { capacity } => {
                write!(
                    f,
                    "server overloaded: request queue full ({capacity} slots)"
                )
            }
            MmmError::DeadlineExceeded => write!(f, "deadline exceeded"),
            MmmError::WorkerPanicked => {
                write!(
                    f,
                    "serving worker panicked while flushing this request's shard"
                )
            }
            MmmError::Stopped => write!(f, "server is stopped and not accepting requests"),
            MmmError::IntegrityViolation { lane } => {
                write!(
                    f,
                    "lane {lane}: integrity violation — corrupted result withheld"
                )
            }
            MmmError::PointNotOnCurve { lane } => {
                write!(f, "lane {lane}: point not on curve")
            }
            MmmError::SingularCurve => write!(f, "singular curve (4a³ + 27b² ≡ 0)"),
            MmmError::ScalarOutOfRange { lane } => {
                write!(f, "lane {lane}: scalar must be in [1, group order)")
            }
        }
    }
}

impl std::error::Error for MmmError {}

/// Validates the common two-slice batch contract of the engine layer:
/// non-empty, equal lengths, within `max_lanes`, every operand `< 2N`.
pub(crate) fn validate_mont_batch(
    params: &MontgomeryParams,
    max_lanes: usize,
    xs: &[Ubig],
    ys: &[Ubig],
) -> Result<(), MmmError> {
    if xs.len() != ys.len() {
        return Err(MmmError::LengthMismatch {
            left: xs.len(),
            right: ys.len(),
        });
    }
    if xs.is_empty() {
        return Err(MmmError::EmptyBatch);
    }
    if xs.len() > max_lanes {
        return Err(MmmError::BatchTooWide {
            lanes: xs.len(),
            max_lanes,
        });
    }
    for (k, (x, y)) in xs.iter().zip(ys).enumerate() {
        if !(params.check_operand(x) && params.check_operand(y)) {
            return Err(MmmError::OperandOutOfRange {
                lane: k,
                bound: OperandBound::TwoN,
            });
        }
    }
    Ok(())
}

/// Validates that every value in `vs` is a fully reduced residue
/// (`< N`), reporting the caller-visible lane index on failure.
pub(crate) fn validate_reduced(n: &Ubig, vs: &[Ubig]) -> Result<(), MmmError> {
    for (k, v) in vs.iter().enumerate() {
        if v >= n {
            return Err(MmmError::OperandOutOfRange {
                lane: k,
                bound: OperandBound::N,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_keeps_legacy_assert_substrings() {
        // The panicking wrappers delegate to the fallible paths and
        // panic with these Display texts; the historical
        // `#[should_panic(expected = ...)]` tests pin the substrings.
        let cases: Vec<(MmmError, &str)> = vec![
            (
                MmmError::OperandOutOfRange {
                    lane: 3,
                    bound: OperandBound::TwoN,
                },
                "lane 3: operands must be < 2N",
            ),
            (
                MmmError::OperandOutOfRange {
                    lane: 0,
                    bound: OperandBound::N,
                },
                "message must be < N",
            ),
            (MmmError::EmptyBatch, "empty batch"),
            (
                MmmError::BatchTooWide {
                    lanes: 65,
                    max_lanes: 64,
                },
                "at most 64 lanes",
            ),
            (
                MmmError::HardwareUnsafeWidth { l: 8 },
                "not hardware-safe at width l=8",
            ),
            (MmmError::EvenModulus, "odd"),
            (MmmError::WidthTooNarrow { bits: 9, l: 8 }, "datapath width"),
            (MmmError::WidthTooSmall { l: 2 }, "at least 3"),
            (
                MmmError::WindowOutOfRange { window: 9 },
                "window must be in 1..=8",
            ),
            (MmmError::Config("oops".into()), "oops"),
            (
                MmmError::Overloaded { capacity: 16 },
                "queue full (16 slots)",
            ),
            (MmmError::DeadlineExceeded, "deadline exceeded"),
            (MmmError::WorkerPanicked, "worker panicked"),
            (MmmError::Stopped, "not accepting requests"),
            (
                MmmError::IntegrityViolation { lane: 5 },
                "lane 5: integrity violation",
            ),
            // The solo mmm-ecc constructors panicked with "point not
            // on curve" / "singular curve"; their fallible twins'
            // Display texts keep those substrings so the historical
            // `#[should_panic]` expectations still match.
            (MmmError::PointNotOnCurve { lane: 0 }, "not on curve"),
            (MmmError::SingularCurve, "singular"),
            (
                MmmError::ScalarOutOfRange { lane: 2 },
                "lane 2: scalar must be in [1, group order)",
            ),
        ];
        for (err, needle) in cases {
            let text = err.to_string();
            assert!(text.contains(needle), "{text:?} lacks {needle:?}");
        }
    }

    #[test]
    fn error_trait_is_implemented() {
        let err: Box<dyn std::error::Error> = Box::new(MmmError::EmptyBatch);
        assert_eq!(err.to_string(), "empty batch");
    }

    #[test]
    fn validate_mont_batch_orders_checks() {
        let p = MontgomeryParams::new(&Ubig::from(13u64), 4);
        let good = Ubig::from(5u64);
        let bad = p.two_n();
        // Length mismatch wins over emptiness.
        assert_eq!(
            validate_mont_batch(&p, 64, &[], std::slice::from_ref(&good)),
            Err(MmmError::LengthMismatch { left: 0, right: 1 })
        );
        assert_eq!(
            validate_mont_batch(&p, 64, &[], &[]),
            Err(MmmError::EmptyBatch)
        );
        let wide = vec![good.clone(); 3];
        assert_eq!(
            validate_mont_batch(&p, 2, &wide, &wide),
            Err(MmmError::BatchTooWide {
                lanes: 3,
                max_lanes: 2
            })
        );
        let xs = vec![good.clone(), bad.clone()];
        let ys = vec![good.clone(), good.clone()];
        assert_eq!(
            validate_mont_batch(&p, 64, &xs, &ys),
            Err(MmmError::OperandOutOfRange {
                lane: 1,
                bound: OperandBound::TwoN
            })
        );
        assert_eq!(validate_mont_batch(&p, 64, &ys, &ys), Ok(()));
    }

    #[test]
    fn validate_reduced_reports_first_bad_lane() {
        let n = Ubig::from(13u64);
        let vs = vec![Ubig::from(12u64), Ubig::from(13u64), Ubig::from(99u64)];
        assert_eq!(
            validate_reduced(&n, &vs),
            Err(MmmError::OperandOutOfRange {
                lane: 1,
                bound: OperandBound::N
            })
        );
        assert_eq!(validate_reduced(&n, &vs[..1]), Ok(()));
    }
}
