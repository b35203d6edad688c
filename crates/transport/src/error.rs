//! Error taxonomy for the staging path.
//!
//! Every failure mode the transport can experience is an enum variant, not
//! a `panic!`: callers decide whether to retry, skip a step, or degrade to
//! the BP file engine. Fatal errors (the endpoint is gone for good) are
//! distinguished from transient per-step losses so the workflow can keep
//! staging through a lossy link but fall back the moment the endpoint dies.

use crate::bp::BpError;

/// Why a staging operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The endpoint reader is gone (channel disconnected). Fatal.
    Disconnected,
    /// The per-writer circuit breaker is open: too many consecutive step
    /// failures. The endpoint is presumed dead. Fatal.
    CircuitOpen,
    /// One step exhausted its transmission attempts (drops/corruption);
    /// later steps may still get through. Transient.
    StepLost {
        /// The step that was given up on.
        step: u64,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// A wait for a staging slot exceeded the real-time safety bound
    /// (wedged reader). Transient but counts toward the circuit breaker.
    Backpressure {
        /// The step whose wait timed out.
        step: u64,
    },
    /// A received frame failed validation.
    Corrupt(BpError),
    /// A wire connection ended mid-frame: `got` of `wanted` bytes arrived.
    /// Transient for the stream as a whole — the reader keeps draining its
    /// surviving connections — but the truncated frame is gone; counted
    /// under `transport/short_reads`.
    ShortRead {
        /// Bytes the frame section needed.
        wanted: usize,
        /// Bytes actually read before the stream ended.
        got: usize,
    },
}

impl TransportError {
    /// True when the endpoint must be presumed permanently gone and the
    /// caller should degrade (e.g. park steps to the file engine).
    pub fn is_fatal(&self) -> bool {
        matches!(
            self,
            TransportError::Disconnected | TransportError::CircuitOpen
        )
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Disconnected => write!(f, "endpoint reader disconnected"),
            TransportError::CircuitOpen => {
                write!(f, "circuit breaker open: endpoint presumed dead")
            }
            TransportError::StepLost { step, attempts } => {
                write!(f, "step {step} lost after {attempts} attempts")
            }
            TransportError::Backpressure { step } => {
                write!(
                    f,
                    "step {step}: the wait for a staging slot exceeded the real-time bound"
                )
            }
            TransportError::Corrupt(e) => write!(f, "corrupt frame: {e}"),
            TransportError::ShortRead { wanted, got } => {
                write!(
                    f,
                    "short read: connection ended after {got} of {wanted} bytes"
                )
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// A failed [`crate::SstWriter::write`]: the error plus the payload handed
/// back so the caller can park it elsewhere (e.g. the BP file engine).
#[derive(Debug, Clone, PartialEq)]
pub struct WriteError {
    /// What went wrong.
    pub error: TransportError,
    /// The marshaled step payload, returned for re-routing.
    pub payload: Vec<u8>,
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.error)
    }
}

impl std::error::Error for WriteError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fatality_classification() {
        assert!(TransportError::Disconnected.is_fatal());
        assert!(TransportError::CircuitOpen.is_fatal());
        assert!(!TransportError::StepLost {
            step: 3,
            attempts: 4
        }
        .is_fatal());
        assert!(!TransportError::Backpressure { step: 1 }.is_fatal());
        assert!(!TransportError::Corrupt(BpError::ChecksumMismatch).is_fatal());
        assert!(!TransportError::ShortRead {
            wanted: 128,
            got: 17
        }
        .is_fatal());
    }

    #[test]
    fn displays_are_informative() {
        let s = TransportError::StepLost {
            step: 9,
            attempts: 4,
        }
        .to_string();
        assert!(s.contains('9') && s.contains('4'));
        assert!(TransportError::CircuitOpen.to_string().contains("breaker"));
    }
}
