//! Margins the oracles compute themselves, apart from the program's
//! scoring kernel.

use hazy_learn::LinearModel;
use hazy_linalg::FeatureVec;

/// `w·f − b` in `f64`, from the model's weights.
pub fn margin(model: &LinearModel, f: &FeatureVec) -> f64 {
    f.iter()
        .map(|(i, x)| model.w.get(i as usize) * f64::from(x))
        .sum::<f64>()
        - model.b
}

/// Margins within `rel` of the model's scale may round either way between
/// the program's arithmetic and this recomputation; the oracles skip them.
pub fn tolerance(model: &LinearModel, rel: f64) -> f64 {
    let w: f64 = (0..model.w.dim())
        .map(|i| model.w.get(i).powi(2))
        .sum::<f64>()
        .sqrt();
    rel * (w + model.b.abs()).max(1e-12)
}

/// Whether `label` is the sign of margin `m`; any label passes within
/// `tol` of zero.
pub fn sign_matches(label: i8, m: f64, tol: f64) -> bool {
    if m.abs() <= tol {
        label == 1 || label == -1
    } else {
        label == if m > 0.0 { 1 } else { -1 }
    }
}
