//! The RSA tenant of the serving plane ([`mmm_core::serve`]):
//! [`KeyedSession`] is its [`Session`] and [`BatchOp`] its
//! [`ShardOp`]. Admission bounces a value `≥ N`; a shard runs through
//! the session method its [`BatchOp`] names, so CRT decryption keeps
//! verify-before-release and blinding inside the flush.
//!
//! ```
//! use mmm_bigint::Ubig;
//! use mmm_core::{EngineConfig, MmmError};
//! use mmm_rsa::serve::Server;
//! use mmm_rsa::{BatchOp, RsaKeyPair};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), MmmError> {
//! let mut rng = StdRng::seed_from_u64(5);
//! let key = RsaKeyPair::generate(&mut rng, 32, 8);
//! let config = EngineConfig::default()
//!     .with_workers(2)?
//!     .with_flush_deadline(Duration::from_millis(1));
//! let mut builder = Server::builder(config);
//! let key_id = builder.add_key(key.clone())?;
//! let server = builder.build()?;
//!
//! // Independent clients submit singletons and block on tickets.
//! let m = Ubig::from(42u64);
//! let c = m.modpow(&key.e, &key.n);
//! let ticket = server.try_submit(key_id, BatchOp::DecryptCrt, c)?;
//! assert_eq!(ticket.wait()?, m);
//!
//! // Bad input bounces at admission; the server keeps serving.
//! let err = server
//!     .try_submit(key_id, BatchOp::DecryptCrt, key.n.clone())
//!     .unwrap_err();
//! assert!(matches!(err, MmmError::OperandOutOfRange { .. }));
//! server.shutdown();
//! # Ok(()) }
//! ```

use crate::keys::RsaKeyPair;
use crate::server::{BatchOp, KeyedSession};
use mmm_bigint::Ubig;
use mmm_core::error::OperandBound;
use mmm_core::serve::{self, Session, ShardOp};
use mmm_core::{EngineConfig, EngineKind, MmmError};

pub use mmm_core::serve::{KeyId, ServeStats};

/// The multi-worker RSA front-end: the serving plane's
/// [`Server`](mmm_core::serve::Server) over [`BatchOp`]s.
pub type Server = serve::Server<BatchOp>;

/// Builds an RSA [`Server`]; its `add_key` takes an [`RsaKeyPair`].
pub type ServerBuilder = serve::ServerBuilder<BatchOp>;

/// The caller's half of one submitted RSA request.
pub type Ticket = serve::Ticket<Ubig>;

impl Session for KeyedSession {
    type Key = RsaKeyPair;

    fn open(key: RsaKeyPair, config: EngineConfig) -> Result<Self, MmmError> {
        KeyedSession::new(key, config)
    }

    fn config(&self) -> &EngineConfig {
        KeyedSession::config(self)
    }

    fn run_kind(&self) -> EngineKind {
        KeyedSession::run_kind(self)
    }
}

impl ShardOp for BatchOp {
    type Session = KeyedSession;
    type Request = Ubig;
    type Response = Ubig;

    /// Rejects a value `≥ N` with [`MmmError::OperandOutOfRange`].
    fn validate(self, session: &KeyedSession, lane: usize, value: &Ubig) -> Result<(), MmmError> {
        if *value >= session.key().n {
            return Err(MmmError::OperandOutOfRange {
                lane,
                bound: OperandBound::N,
            });
        }
        Ok(())
    }

    fn run_batch(self, session: &KeyedSession, values: &[Ubig]) -> Result<Vec<Ubig>, MmmError> {
        match self {
            BatchOp::Sign => session.sign(values),
            BatchOp::Decrypt => session.decrypt(values),
            BatchOp::DecryptCrt => session.decrypt_crt(values),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Duration;

    #[test]
    fn roundtrip_and_validation() {
        let mut rng = StdRng::seed_from_u64(51);
        let key = RsaKeyPair::generate(&mut rng, 32, 12);
        let config = EngineConfig::default()
            .with_workers(2)
            .unwrap()
            .with_flush_deadline(Duration::from_millis(1));
        let mut builder = Server::builder(config);
        let id = builder.add_key(key.clone()).unwrap();
        let server = builder.build().unwrap();
        let m = Ubig::from(99u64);
        let c = m.modpow(&key.e, &key.n);
        let t = server.try_submit(id, BatchOp::DecryptCrt, c).unwrap();
        assert_eq!(t.wait().unwrap(), m);
        assert_eq!(
            server
                .try_submit(id, BatchOp::Sign, key.n.clone())
                .unwrap_err(),
            MmmError::OperandOutOfRange {
                lane: 0,
                bound: OperandBound::N
            }
        );
        let stats = server.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.rejected_invalid, 1);
        assert_eq!(stats.completed_ok, 1);
        server.shutdown();
    }
}
