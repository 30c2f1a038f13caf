//! Versioned on-disk format for fitted models.
//!
//! A *bundle* holds every model fitted for one `(workload, platform)`
//! pair together with its validation error bounds, so a prediction
//! service can answer queries without re-measuring or re-fitting. The
//! format is line-oriented text:
//!
//! ```text
//! # mosaic-models v2
//! workload<TAB>gups/8GB
//! platform<TAB>sandy_bridge
//! model<TAB>basu<TAB><max_err><TAB><geo_mean_err>
//! closed<TAB><alpha_c><TAB><alpha_m><TAB><alpha_h><TAB><beta>
//! end
//! model<TAB>mosmodel<TAB><max_err><TAB><geo_mean_err>
//! linear<TAB>CMH<TAB>3
//! weights<TAB><w0><TAB><w1><TAB>…
//! end
//! ```
//!
//! Every `f64` is written as the 16-hex-digit big-endian bit pattern
//! (`f64::to_bits`), so decoding reproduces the fitted coefficients
//! **bit-for-bit** — predictions from a reloaded bundle are identical to
//! predictions from the in-memory fit. A trailing `# <value>` comment on
//! parameter lines keeps the file human-readable.
//!
//! Decoding rejects unknown versions: readers never guess at a format
//! they were not written for.

// Lengths and counts decoded from a store file must not wrap or
// truncate: integer operations here are written out as checked ones.
#![cfg_attr(
    not(test),
    deny(clippy::arithmetic_side_effects, clippy::cast_possible_truncation)
)]

use std::fmt;

use crate::models::{ClosedForm, Inner};
use crate::ols::LinearFit;
use crate::poly::{PolyFeatures, Var};
use crate::{FittedModel, ModelKind};

/// Current format version; bump on any incompatible change, including a
/// change of fitting method, so that a store fitted by an older solver
/// is refitted rather than served.
pub const FORMAT_VERSION: u32 = 2;

/// Magic first line of a bundle file.
const MAGIC: &str = "# mosaic-models v";

/// One fitted model plus the error bounds measured on its fit dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct PersistedModel {
    /// The fitted model.
    pub model: FittedModel,
    /// Maximal relative error over the fit dataset (paper Eq. 1).
    pub max_err: f64,
    /// Geometric-mean relative error (paper Eq. 2).
    pub geo_mean_err: f64,
}

/// All models fitted for one `(workload, platform)` pair.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelBundle {
    /// Workload name, e.g. `gups/8GB`.
    pub workload: String,
    /// Platform name, e.g. `sandy_bridge`.
    pub platform: String,
    /// Fitted models with their error bounds.
    pub models: Vec<PersistedModel>,
}

/// Decoding failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PersistError {
    /// The file does not start with the magic header line.
    BadMagic,
    /// The header names a version this reader does not speak.
    BadVersion(String),
    /// A structural problem at the given 1-based line number.
    Malformed(usize, String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "missing `{MAGIC}N` header"),
            PersistError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported model-store version {v:?} (expected v{FORMAT_VERSION})"
                )
            }
            PersistError::Malformed(line, what) => write!(f, "line {line}: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Renders an `f64` with Rust's `Display`, which emits the *shortest*
/// decimal string that parses back to the identical bit pattern. This is
/// the blessed codec for columns that must stay human-readable (unlike
/// the hex-bit encoding) yet still round-trip exactly — e.g. the grid
/// cache's `cvR` column.
pub fn fmt_f64_shortest(v: f64) -> String {
    format!("{v}")
}

/// Parses a float written by [`fmt_f64_shortest`]; returns `None` for
/// text `f64::from_str` rejects. `parse_f64_shortest(&fmt_f64_shortest(v))`
/// reproduces `v` bit-for-bit for every finite `v`.
pub fn parse_f64_shortest(s: &str) -> Option<f64> {
    s.parse().ok()
}

/// Injective file-name encoding for on-disk store/cache path
/// components. ASCII alphanumerics, `-` and `.` pass through; every
/// other byte (including `_`, `/`, space and `%` itself) becomes
/// `%XX`, so distinct names can never share a file. Both the model
/// store (`crates/service/src/registry.rs`) and the grid cache
/// (`crates/harness/src/experiment.rs`) name their files with this —
/// the old `replace(['/', ' '], "_")` sanitization mapped `a/b`,
/// `a b` and `a_b` to one path, and colliding pairs then silently
/// overwrote each other's file.
pub fn encode_component(raw: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(raw.len());
    for byte in raw.bytes() {
        match byte {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'.' => out.push(byte as char),
            _ => {
                let _ = write!(out, "%{byte:02X}");
            }
        }
    }
    out
}

/// Inverse of [`encode_component`]: decodes `%XX` escapes back to their
/// bytes, so tooling can recover the pair a store or cache file serves
/// from its name. Returns `None` for text no encoder output could have
/// produced (truncated or non-hex escapes, non-UTF-8 decoded bytes).
pub fn decode_component(encoded: &str) -> Option<String> {
    let mut out = Vec::with_capacity(encoded.len());
    let mut bytes = encoded.bytes();
    while let Some(byte) = bytes.next() {
        if byte == b'%' {
            let hex = [bytes.next()?, bytes.next()?];
            let hex = std::str::from_utf8(&hex).ok()?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
        } else {
            out.push(byte);
        }
    }
    String::from_utf8(out).ok()
}

fn parse_f64_hex(line_no: usize, field: &str) -> Result<f64, PersistError> {
    u64::from_str_radix(field, 16)
        .map(f64::from_bits)
        .map_err(|_| PersistError::Malformed(line_no, format!("bad f64 bits {field:?}")))
}

fn var_letter(v: Var) -> char {
    match v {
        Var::H => 'H',
        Var::M => 'M',
        Var::C => 'C',
    }
}

fn parse_var(line_no: usize, letter: char) -> Result<Var, PersistError> {
    match letter {
        'H' => Ok(Var::H),
        'M' => Ok(Var::M),
        'C' => Ok(Var::C),
        other => Err(PersistError::Malformed(
            line_no,
            format!("unknown variable {other:?}"),
        )),
    }
}

/// Renders a bundle in the versioned text format.
pub fn encode_bundle(bundle: &ModelBundle) -> String {
    let mut out = format!("{MAGIC}{FORMAT_VERSION}\n");
    out.push_str(&format!("workload\t{}\n", bundle.workload));
    out.push_str(&format!("platform\t{}\n", bundle.platform));
    for entry in &bundle.models {
        out.push_str(&format!(
            // The `{:.3e}` fields are a trailing human-readable comment;
            // the parsed values are the hex-bit columns.
            "model\t{}\t{}\t{}\t# max={:.3e} geo={:.3e}\n",
            entry.model.kind().name(),
            f64_hex(entry.max_err),
            f64_hex(entry.geo_mean_err),
            entry.max_err,
            entry.geo_mean_err,
        ));
        match entry.model.inner() {
            Inner::Closed(c) => {
                out.push_str(&format!(
                    "closed\t{}\t{}\t{}\t{}\t# ac={} am={} ah={} b={}\n",
                    f64_hex(c.alpha_c),
                    f64_hex(c.alpha_m),
                    f64_hex(c.alpha_h),
                    f64_hex(c.beta),
                    c.alpha_c,
                    c.alpha_m,
                    c.alpha_h,
                    c.beta,
                ));
            }
            Inner::Linear(l) => {
                let vars: String = l.features().vars().iter().map(|&v| var_letter(v)).collect();
                out.push_str(&format!("linear\t{vars}\t{}\n", l.features().degree()));
                let weights: Vec<String> = l.weights().iter().map(|&w| f64_hex(w)).collect();
                out.push_str(&format!("weights\t{}\n", weights.join("\t")));
            }
        }
        out.push_str("end\n");
    }
    out
}

/// Parses a bundle previously rendered by [`encode_bundle`].
///
/// # Errors
///
/// Any structural defect — wrong magic, unknown version, unknown model
/// name, wrong weight count — yields a [`PersistError`]; the decoder
/// never panics on malformed input.
pub fn decode_bundle(text: &str) -> Result<ModelBundle, PersistError> {
    let mut lines = (1usize..).zip(text.lines());

    let (_, header) = lines.next().ok_or(PersistError::BadMagic)?;
    let version = header.strip_prefix(MAGIC).ok_or(PersistError::BadMagic)?;
    if version.trim().parse::<u32>() != Ok(FORMAT_VERSION) {
        return Err(PersistError::BadVersion(version.trim().to_string()));
    }

    let mut field = |name: &str| -> Result<String, PersistError> {
        let (no, line) = lines
            .next()
            .ok_or(PersistError::Malformed(0, format!("missing {name} line")))?;
        line.strip_prefix(name)
            .and_then(|rest| rest.strip_prefix('\t'))
            .map(str::to_string)
            .ok_or_else(|| PersistError::Malformed(no, format!("expected `{name}\\t…`")))
    };
    let workload = field("workload")?;
    let platform = field("platform")?;

    let mut models = Vec::new();
    while let Some((no, line)) = lines.next() {
        if line.is_empty() {
            continue;
        }
        let cols: Vec<&str> = line.split('\t').collect();
        if cols[0] != "model" || cols.len() < 4 {
            return Err(PersistError::Malformed(
                no,
                format!("expected `model` line, got {line:?}"),
            ));
        }
        let kind: ModelKind = cols[1]
            .parse()
            .map_err(|e| PersistError::Malformed(no, e))?;
        let max_err = parse_f64_hex(no, cols[2])?;
        let geo_mean_err = parse_f64_hex(no, cols[3])?;

        let (body_no, body) = lines
            .next()
            .ok_or(PersistError::Malformed(no, "model body missing".into()))?;
        let body_cols: Vec<&str> = body.split('\t').collect();
        let inner = match body_cols[0] {
            "closed" if body_cols.len() >= 5 => Inner::Closed(ClosedForm {
                alpha_c: parse_f64_hex(body_no, body_cols[1])?,
                alpha_m: parse_f64_hex(body_no, body_cols[2])?,
                alpha_h: parse_f64_hex(body_no, body_cols[3])?,
                beta: parse_f64_hex(body_no, body_cols[4])?,
            }),
            "linear" if body_cols.len() >= 3 => {
                let vars = body_cols[1]
                    .chars()
                    .map(|c| parse_var(body_no, c))
                    .collect::<Result<Vec<Var>, _>>()?;
                let degree: u32 = body_cols[2].parse().map_err(|_| {
                    PersistError::Malformed(body_no, format!("bad degree {:?}", body_cols[2]))
                })?;
                let features = PolyFeatures::new(vars, degree);
                let (w_no, w_line) = lines.next().ok_or(PersistError::Malformed(
                    body_no,
                    "weights line missing".into(),
                ))?;
                let w_cols: Vec<&str> = w_line.split('\t').collect();
                if w_cols[0] != "weights" {
                    return Err(PersistError::Malformed(
                        w_no,
                        "expected `weights` line".into(),
                    ));
                }
                let weights = w_cols[1..]
                    .iter()
                    .map(|f| parse_f64_hex(w_no, f))
                    .collect::<Result<Vec<f64>, _>>()?;
                if weights.len() != features.len() {
                    return Err(PersistError::Malformed(
                        w_no,
                        format!("{} weights for {} features", weights.len(), features.len()),
                    ));
                }
                Inner::Linear(LinearFit::from_raw_weights(features, weights))
            }
            other => {
                return Err(PersistError::Malformed(
                    body_no,
                    format!("unknown model body {other:?}"),
                ))
            }
        };

        let (end_no, end_line) = lines.next().ok_or(PersistError::Malformed(
            no,
            "unterminated model section".into(),
        ))?;
        if end_line != "end" {
            return Err(PersistError::Malformed(end_no, "expected `end`".into()));
        }
        models.push(PersistedModel {
            model: FittedModel::from_parts(kind, inner),
            max_err,
            geo_mean_err,
        });
    }

    Ok(ModelBundle {
        workload,
        platform,
        models,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::LayoutKind;
    use crate::{Dataset, RuntimeModel, Sample};

    fn battery() -> Dataset {
        (0..54)
            .map(|i| {
                let c = 1e6 * (i + 1) as f64;
                let kind = match i {
                    0 => LayoutKind::All2M,
                    53 => LayoutKind::All4K,
                    _ => LayoutKind::Mixed,
                };
                Sample {
                    r: 1e9 + 0.85 * c + 3e-10 * c * c,
                    h: 50.0 + i as f64,
                    m: 2.0 * i as f64,
                    c,
                    kind,
                }
            })
            .collect()
    }

    fn bundle() -> ModelBundle {
        let data = battery();
        let models = ModelKind::ALL
            .into_iter()
            .map(|kind| {
                let model = kind.fit(&data).unwrap();
                PersistedModel {
                    max_err: crate::metrics::max_err(&model, &data),
                    geo_mean_err: crate::metrics::geo_mean_err(&model, &data),
                    model,
                }
            })
            .collect();
        ModelBundle {
            workload: "gups/8GB".into(),
            platform: "sandy_bridge".into(),
            models,
        }
    }

    #[test]
    fn bundle_roundtrips_bit_for_bit() {
        let original = bundle();
        let decoded = decode_bundle(&encode_bundle(&original)).unwrap();
        assert_eq!(original, decoded);

        // Predictions are bit-identical, not merely close.
        let probe = Sample {
            r: 0.0,
            h: 60.0,
            m: 14.0,
            c: 2.5e7,
            kind: LayoutKind::Mixed,
        };
        for (a, b) in original.models.iter().zip(&decoded.models) {
            let x = a.model.predict(&probe);
            let y = b.model.predict(&probe);
            assert_eq!(x.to_bits(), y.to_bits(), "{} drifted", a.model.kind());
        }
    }

    #[test]
    fn component_encoding_is_injective_and_round_trips() {
        // The collision class the old `replace(['/', ' '], "_")`
        // sanitization created: all three mapped to `a_b`.
        let colliding = ["a/b", "a b", "a_b"];
        for (i, a) in colliding.iter().enumerate() {
            for b in colliding.iter().skip(i + 1) {
                assert_ne!(
                    encode_component(a),
                    encode_component(b),
                    "{a:?} and {b:?} must not share a file name"
                );
            }
        }
        for raw in [
            "gups/8GB",
            "a_b",
            "a b",
            "100%",
            "Broadwell-1.2",
            "",
            "snake_case/with spaces/and%percent",
            "ünïcode/π",
        ] {
            let encoded = encode_component(raw);
            assert!(
                !encoded.contains('/') && !encoded.contains(' '),
                "{encoded:?} is not filesystem-safe"
            );
            assert_eq!(
                decode_component(&encoded).as_deref(),
                Some(raw),
                "{raw:?} -> {encoded:?} failed to decode back"
            );
        }
        // Text no encoder could have produced decodes to None, not junk.
        assert_eq!(decode_component("%"), None);
        assert_eq!(decode_component("%2"), None);
        assert_eq!(decode_component("%zz"), None);
        assert_eq!(decode_component("%FF"), None); // not UTF-8
    }

    #[test]
    fn shortest_roundtrip_codec_is_bit_exact() {
        let probes = [
            0.0,
            -0.0,
            1.0 / 3.0,
            0.047_281_953,
            1e-308,
            f64::MAX,
            std::f64::consts::PI,
        ];
        for v in probes {
            let s = fmt_f64_shortest(v);
            let back = parse_f64_shortest(&s).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{s} drifted");
        }
        assert!(parse_f64_shortest("not-a-float").is_none());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Both float codecs over arbitrary bit patterns: the hex codec
        /// keeps every pattern, NaN payloads included, and the shortest
        /// codec keeps every non-NaN one. The grid cache writes its
        /// floats with the shortest codec.
        #[test]
        fn float_codecs_roundtrip_arbitrary_bit_patterns(bits in proptest::prelude::any::<u64>()) {
            let v = f64::from_bits(bits);
            proptest::prop_assert_eq!(parse_f64_hex(1, &f64_hex(v)).map(f64::to_bits), Ok(bits));
            if !v.is_nan() {
                let back = parse_f64_shortest(&fmt_f64_shortest(v)).map(f64::to_bits);
                proptest::prop_assert_eq!(back, Some(bits));
            }
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let text = encode_bundle(&bundle()).replacen("v2", "v1", 1);
        assert!(matches!(
            decode_bundle(&text),
            Err(PersistError::BadVersion(_))
        ));
        assert!(matches!(
            decode_bundle("not a bundle"),
            Err(PersistError::BadMagic)
        ));
        assert!(matches!(decode_bundle(""), Err(PersistError::BadMagic)));
    }

    #[test]
    fn truncated_and_corrupt_bundles_error_cleanly() {
        let text = encode_bundle(&bundle());
        // Chop the file at every line boundary: never a panic, and
        // anything missing a section terminator is an error.
        let lines: Vec<&str> = text.lines().collect();
        for cut in 0..lines.len() {
            let truncated = lines[..cut].join("\n");
            let _ = decode_bundle(&truncated);
        }
        // Corrupt a weight field.
        let corrupt = text.replacen("weights\t", "weights\tzzzz-not-hex\t", 1);
        assert!(matches!(
            decode_bundle(&corrupt),
            Err(PersistError::Malformed(..))
        ));
    }
}
