//! Error type for the wade-core public API.

use std::fmt;

/// Errors surfaced by the prediction pipeline.
#[derive(Debug)]
pub enum WadeError {
    /// Persistence (JSON serialisation) failed.
    Persistence(String),
}

impl fmt::Display for WadeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WadeError::Persistence(what) => write!(f, "persistence failure: {what}"),
        }
    }
}

impl std::error::Error for WadeError {}

impl From<serde_json::Error> for WadeError {
    fn from(err: serde_json::Error) -> Self {
        WadeError::Persistence(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = WadeError::Persistence("unexpected end of input".into());
        assert_eq!(e.to_string(), "persistence failure: unexpected end of input");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<WadeError>();
    }
}
