//! The `POST /predict` wire protocol.
//!
//! Request and response are plain JSON through the vendored serde derive,
//! so the response body is — byte for byte — the serialization the golden
//! tests compute directly from [`wade_core::ErrorModel::predict_rows`]
//! (the vendored `serde_json` round-trips `f64` exactly and emits map keys
//! in declaration order).

use serde::{Deserialize, Serialize};
use wade_core::{MlKind, Prediction};
use wade_dram::OperatingPoint;
use wade_features::{schema, FeatureSet, FeatureVector};

/// A `POST /predict` body: which model family to use and the rows to
/// predict. The feature set is fixed per server (it is part of the trained
/// models), so rows carry only features and operating point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictRequest {
    /// Model family label: `"SVM"`, `"KNN"` or `"RDF"`.
    pub model: String,
    /// The rows to predict, in order.
    pub rows: Vec<PredictRow>,
}

/// One row of a [`PredictRequest`]: the workload's program features plus
/// the operating point of eq. 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictRow {
    /// All [`schema::FEATURE_COUNT`] program features, in schema order.
    pub features: Vec<f64>,
    /// Refresh period in seconds (`TREFP`).
    pub trefp_s: f64,
    /// DIMM temperature in °C (`TEMP_DRAM`).
    pub temp_c: f64,
    /// Supply voltage in volts (`VDD`).
    pub vdd_v: f64,
}

impl PredictRow {
    /// Builds a row from a feature vector and an operating point.
    pub fn new(features: &FeatureVector, op: OperatingPoint) -> Self {
        Self {
            features: features.values().to_vec(),
            trefp_s: op.trefp_s,
            temp_c: op.temp_c,
            vdd_v: op.vdd_v,
        }
    }

    /// Validates and converts into the model layer's input pair.
    ///
    /// # Errors
    /// A static reason when the feature count is wrong or any value is
    /// non-finite — surfaced as a `400`, never a panic (the
    /// [`FeatureVector`] constructor asserts; this is the boundary that
    /// keeps untrusted input away from those asserts).
    pub fn into_input(self) -> Result<(FeatureVector, OperatingPoint), &'static str> {
        if self.features.len() != schema::FEATURE_COUNT {
            return Err("wrong feature count");
        }
        if !self.features.iter().all(|v| v.is_finite()) {
            return Err("non-finite feature value");
        }
        if ![self.trefp_s, self.temp_c, self.vdd_v].iter().all(|v| v.is_finite()) {
            return Err("non-finite operating point");
        }
        let op = OperatingPoint { trefp_s: self.trefp_s, vdd_v: self.vdd_v, temp_c: self.temp_c };
        Ok((FeatureVector::from_values(self.features), op))
    }
}

/// A `POST /predict` response: the echoed model/set labels and one
/// [`Prediction`] per request row, in request order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictResponse {
    /// Model family that served the rows.
    pub model: String,
    /// Feature-set label of the trained models (`"Set1"`/`"Set2"`/`"Set3"`).
    pub set: String,
    /// Per-row predictions, in request order.
    pub rows: Vec<Prediction>,
}

/// Parses a model family label (`"SVM"`, `"KNN"`, `"RDF"`).
pub fn parse_model_kind(label: &str) -> Option<MlKind> {
    MlKind::ALL.into_iter().find(|k| k.label() == label)
}

/// The wire label of a feature set (`"Set1"`/`"Set2"`/`"Set3"`).
pub fn feature_set_label(set: FeatureSet) -> &'static str {
    match set {
        FeatureSet::Set1 => "Set1",
        FeatureSet::Set2 => "Set2",
        FeatureSet::Set3 => "Set3",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a [`feature_set_label`] back into its set.
    fn parse_feature_set(label: &str) -> Option<FeatureSet> {
        FeatureSet::ALL.into_iter().find(|&s| feature_set_label(s) == label)
    }

    #[test]
    fn request_roundtrips_through_json() {
        let req = PredictRequest {
            model: "KNN".into(),
            rows: vec![PredictRow {
                features: vec![0.5; schema::FEATURE_COUNT],
                trefp_s: 2.283,
                temp_c: 70.0,
                vdd_v: 1.428,
            }],
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: PredictRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(req, back);
    }

    #[test]
    fn labels_roundtrip() {
        for kind in MlKind::ALL {
            assert_eq!(parse_model_kind(kind.label()), Some(kind));
        }
        for set in FeatureSet::ALL {
            assert_eq!(parse_feature_set(feature_set_label(set)), Some(set));
        }
        assert_eq!(parse_model_kind("GPT"), None);
        assert_eq!(parse_feature_set("Set9"), None);
    }

    #[test]
    fn validation_rejects_bad_rows() {
        let short = PredictRow { features: vec![1.0; 3], trefp_s: 1.0, temp_c: 60.0, vdd_v: 1.5 };
        assert!(short.into_input().is_err());
        let nan = PredictRow {
            features: vec![f64::NAN; schema::FEATURE_COUNT],
            trefp_s: 1.0,
            temp_c: 60.0,
            vdd_v: 1.5,
        };
        assert!(nan.into_input().is_err());
        let bad_op = PredictRow {
            features: vec![0.0; schema::FEATURE_COUNT],
            trefp_s: f64::INFINITY,
            temp_c: 60.0,
            vdd_v: 1.5,
        };
        assert!(bad_op.into_input().is_err());
    }
}
