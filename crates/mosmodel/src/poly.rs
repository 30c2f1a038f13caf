//! Polynomial feature expansion over the `(H, M, C)` counters.

use crate::Sample;

/// A model input variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Var {
    /// L2-TLB hits.
    H,
    /// L2-TLB misses.
    M,
    /// Walk cycles.
    C,
}

impl Var {
    /// Extracts the variable's value from a sample.
    pub fn of(self, s: &Sample) -> f64 {
        match self {
            Var::H => s.h,
            Var::M => s.m,
            Var::C => s.c,
        }
    }
}

/// A polynomial feature map: all monomials of the chosen variables up to
/// a total degree, intercept first.
///
/// For `vars = [C]`, degree 3 this yields `[1, C, C², C³]`; for all three
/// variables and degree 3 it yields the 20 monomials of paper Equation 3.
///
/// # Example
///
/// ```
/// use mosmodel::poly::{PolyFeatures, Var};
/// use mosmodel::dataset::{LayoutKind, Sample};
///
/// let f = PolyFeatures::new(vec![Var::C], 2);
/// let s = Sample { r: 0.0, h: 0.0, m: 0.0, c: 3.0, kind: LayoutKind::Mixed };
/// assert_eq!(f.expand(&s), vec![1.0, 3.0, 9.0]);
/// assert_eq!(f.names(), vec!["1", "C", "C^2"]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PolyFeatures {
    vars: Vec<Var>,
    degree: u32,
    /// Exponent tuples, one per feature, parallel to `vars`.
    exponents: Vec<Vec<u32>>,
}

impl PolyFeatures {
    /// Creates the feature map.
    ///
    /// # Panics
    ///
    /// Panics if `vars` is empty or `degree == 0`.
    pub fn new(vars: Vec<Var>, degree: u32) -> Self {
        assert!(!vars.is_empty(), "no variables");
        assert!(degree >= 1, "degree must be at least 1");
        let mut exponents = Vec::new();
        let mut current = vec![0u32; vars.len()];
        enumerate(&mut exponents, &mut current, 0, degree);
        // Sort by total degree then lexicographically, intercept first.
        exponents.sort_by_key(|e| (e.iter().sum::<u32>(), e.clone()));
        PolyFeatures {
            vars,
            degree,
            exponents,
        }
    }

    /// The paper's Mosmodel feature set: all of `(H, M, C)` to degree 3
    /// (20 monomials including the intercept).
    pub fn mosmodel() -> Self {
        PolyFeatures::new(vec![Var::C, Var::M, Var::H], 3)
    }

    /// Single-variable polynomial in `C` of the given degree (poly1/2/3).
    pub fn in_c(degree: u32) -> Self {
        PolyFeatures::new(vec![Var::C], degree)
    }

    /// Number of features (including the intercept).
    pub fn len(&self) -> usize {
        self.exponents.len()
    }

    /// Whether the map has no features (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.exponents.is_empty()
    }

    /// The polynomial degree.
    pub fn degree(&self) -> u32 {
        self.degree
    }

    /// The variables used.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Total degree of each feature (0 for the intercept), in feature
    /// order.
    pub fn total_degrees(&self) -> Vec<u32> {
        self.exponents.iter().map(|e| e.iter().sum()).collect()
    }

    /// Expands one sample into its feature vector (intercept first).
    pub fn expand(&self, s: &Sample) -> Vec<f64> {
        self.exponents
            .iter()
            .map(|exps| {
                exps.iter()
                    .zip(&self.vars)
                    .map(|(&e, &v)| v.of(s).powi(e as i32))
                    .product()
            })
            .collect()
    }

    /// Human-readable feature names like `["1", "C", "M", "C^2", "C*M", ...]`.
    pub fn names(&self) -> Vec<String> {
        self.exponents
            .iter()
            .map(|exps| {
                let parts: Vec<String> = exps
                    .iter()
                    .zip(&self.vars)
                    .filter(|(&e, _)| e > 0)
                    .map(|(&e, v)| {
                        if e == 1 {
                            format!("{v:?}")
                        } else {
                            format!("{v:?}^{e}")
                        }
                    })
                    .collect();
                if parts.is_empty() {
                    "1".to_string()
                } else {
                    parts.join("*")
                }
            })
            .collect()
    }
}

/// Recursively enumerates all exponent tuples with total degree <= max.
fn enumerate(out: &mut Vec<Vec<u32>>, current: &mut Vec<u32>, var: usize, budget: u32) {
    if var == current.len() {
        out.push(current.clone());
        return;
    }
    for e in 0..=budget {
        current[var] = e;
        enumerate(out, current, var + 1, budget - e);
    }
    current[var] = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::LayoutKind;

    fn sample(h: f64, m: f64, c: f64) -> Sample {
        Sample {
            r: 0.0,
            h,
            m,
            c,
            kind: LayoutKind::Mixed,
        }
    }

    #[test]
    fn single_var_counts() {
        assert_eq!(PolyFeatures::in_c(1).len(), 2);
        assert_eq!(PolyFeatures::in_c(2).len(), 3);
        assert_eq!(PolyFeatures::in_c(3).len(), 4);
    }

    #[test]
    fn mosmodel_has_twenty_features() {
        // "a third-order polynomial in three variables has 20 parameters"
        // (paper §VII-C).
        assert_eq!(PolyFeatures::mosmodel().len(), 20);
    }

    #[test]
    fn two_var_degree_two_is_six() {
        let f = PolyFeatures::new(vec![Var::C, Var::M], 2);
        // 1, C, M, C², CM, M².
        assert_eq!(f.len(), 6);
    }

    #[test]
    fn expansion_values_and_intercept_first() {
        let f = PolyFeatures::new(vec![Var::C, Var::M], 2);
        let v = f.expand(&sample(0.0, 3.0, 2.0));
        assert_eq!(v[0], 1.0, "intercept first");
        let names = f.names();
        assert_eq!(names[0], "1");
        // Check every named monomial evaluates as claimed.
        for (name, value) in names.iter().zip(&v) {
            let expected: f64 = match name.as_str() {
                "1" => 1.0,
                "C" => 2.0,
                "M" => 3.0,
                "C^2" => 4.0,
                "C*M" => 6.0,
                "M^2" => 9.0,
                other => panic!("unexpected feature {other}"),
            };
            assert_eq!(*value, expected, "{name}");
        }
    }

    #[test]
    fn total_degrees_match_names() {
        let f = PolyFeatures::mosmodel();
        let degrees = f.total_degrees();
        assert_eq!(degrees[0], 0, "intercept");
        assert_eq!(degrees.iter().max(), Some(&3));
        // Count of degree-1 features: C, M, H.
        assert_eq!(degrees.iter().filter(|&&d| d == 1).count(), 3);
    }

    #[test]
    fn names_unique() {
        let f = PolyFeatures::mosmodel();
        let mut names = f.names();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 20);
    }

    #[test]
    fn var_extraction() {
        let s = sample(1.0, 2.0, 3.0);
        assert_eq!(Var::H.of(&s), 1.0);
        assert_eq!(Var::M.of(&s), 2.0);
        assert_eq!(Var::C.of(&s), 3.0);
    }

    #[test]
    #[should_panic(expected = "degree")]
    fn zero_degree_rejected() {
        PolyFeatures::new(vec![Var::C], 0);
    }
}
