//! The [`Model`] abstraction shared by every learner in the repo: one
//! cancellable loss entry point and one gradient entry point, both over
//! a caller-owned minibatch [`Workspace`].

use crate::workspace::Workspace;
use fedval_data::Dataset;
use fedval_runtime::{CancelToken, Cancelled};

/// A differentiable classifier with a flat parameter vector.
///
/// The flat layout is the load-bearing design decision: FedAvg aggregates
/// client models by averaging these vectors, and the utility-matrix oracle
/// evaluates the loss of averaged vectors directly. Implementations must
/// treat the parameter slice as the *only* state that affects the loss,
/// the gradient, and `predict`: callers may overwrite it through
/// [`params_mut`](Model::params_mut) (the oracle writes each cell's
/// aggregate there) as well as through [`set_params`](Model::set_params).
///
/// An implementation provides one loss entry point
/// ([`loss_with`](Model::loss_with), cancellable) and one gradient entry
/// point ([`grad_with`](Model::grad_with)); [`loss`](Model::loss) and
/// [`grad`](Model::grad) are the allocating conveniences over them.
pub trait Model: Send + Sync {
    /// Immutable view of the flat parameter vector.
    fn params(&self) -> &[f64];

    /// Mutable view of the flat parameter vector.
    fn params_mut(&mut self) -> &mut [f64];

    /// Mean loss (including any regularization) over `data`, evaluated
    /// with the caller's reusable minibatch buffers at the workspace's
    /// tier. `cancel` is observed between minibatch chunks: once it
    /// fires, the evaluation is abandoned with `Err(Cancelled)` — this
    /// is what lets the utility oracle stop *inside* a cell instead of
    /// finishing a huge evaluation first.
    fn loss_with(
        &self,
        data: &Dataset,
        ws: &mut Workspace,
        cancel: &CancelToken,
    ) -> Result<f64, Cancelled>;

    /// Writes the full-batch gradient of the loss into `out` and returns
    /// the loss, with the caller's reusable minibatch buffers.
    /// `out.len()` must equal `num_params()`. Not cancellable: training
    /// observes cancellation between rounds.
    fn grad_with(&self, data: &Dataset, out: &mut [f64], ws: &mut Workspace) -> f64;

    /// [`loss_with`](Model::loss_with) on a fresh workspace at the
    /// process default tier, uncancelled.
    fn loss(&self, data: &Dataset) -> f64 {
        self.loss_with(data, &mut Workspace::new(), &CancelToken::new())
            .expect("a fresh token is never cancelled")
    }

    /// [`grad_with`](Model::grad_with) on a fresh workspace at the
    /// process default tier.
    fn grad(&self, data: &Dataset, out: &mut [f64]) -> f64 {
        self.grad_with(data, out, &mut Workspace::new())
    }

    /// Predicted class for one feature vector.
    fn predict(&self, x: &[f64]) -> usize;

    /// A stable string identifying the architecture and every
    /// hyperparameter that affects [`loss`](Model::loss) *besides* the
    /// parameter vector (layer shapes, regularization strength, …).
    /// The shared cell cache hashes this into trace fingerprints, so
    /// two models that would score the same parameters differently
    /// **must** return different descriptors — otherwise cached cells
    /// could be served across them. The default covers only the
    /// parameter count; built-in models override it.
    fn cache_descriptor(&self) -> String {
        format!("model:params={}", self.num_params())
    }

    /// Deep copy behind a trait object. FedAvg clones one prototype per
    /// client, and the utility oracle's batch engine clones one scratch
    /// model per worker thread — implementations should keep this a plain
    /// copy of the flat parameter vector (no shared interior state), so a
    /// clone is cheap and the copies are safe to drive from different
    /// threads.
    fn clone_model(&self) -> Box<dyn Model>;

    /// Number of parameters.
    fn num_params(&self) -> usize {
        self.params().len()
    }

    /// Overwrites the parameters from a slice of the same length.
    fn set_params(&mut self, params: &[f64]) {
        let dst = self.params_mut();
        assert_eq!(dst.len(), params.len(), "parameter length mismatch");
        dst.copy_from_slice(params);
    }

    /// Classification accuracy on `data` (0 for an empty dataset).
    fn accuracy(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct = (0..data.len())
            .filter(|&i| {
                let (x, y) = data.example(i);
                self.predict(x) == y
            })
            .count();
        correct as f64 / data.len() as f64
    }
}

impl Clone for Box<dyn Model> {
    fn clone(&self) -> Self {
        self.clone_model()
    }
}

/// Numerically checks `grad` against central finite differences at the
/// current parameters. Returns the maximum absolute difference over the
/// probed coordinates. Shared by the gradient tests of every model.
pub fn finite_difference_check(
    model: &mut dyn Model,
    data: &Dataset,
    coords: &[usize],
    h: f64,
) -> f64 {
    let n = model.num_params();
    let mut grad = vec![0.0; n];
    model.grad(data, &mut grad);
    let mut worst = 0.0_f64;
    for &c in coords {
        assert!(c < n);
        let orig = model.params()[c];
        model.params_mut()[c] = orig + h;
        let up = model.loss(data);
        model.params_mut()[c] = orig - h;
        let down = model.loss(data);
        model.params_mut()[c] = orig;
        let fd = (up - down) / (2.0 * h);
        worst = worst.max((fd - grad[c]).abs());
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedval_linalg::Matrix;

    /// Minimal linear model `loss = mean((w·x - y)²)` used to test the
    /// provided methods of the trait itself.
    struct Lsq {
        w: Vec<f64>,
    }

    impl Model for Lsq {
        fn params(&self) -> &[f64] {
            &self.w
        }
        fn params_mut(&mut self) -> &mut [f64] {
            &mut self.w
        }
        fn loss_with(
            &self,
            data: &Dataset,
            _ws: &mut Workspace,
            cancel: &CancelToken,
        ) -> Result<f64, Cancelled> {
            cancel.check()?;
            let mut total = 0.0;
            for i in 0..data.len() {
                let (x, y) = data.example(i);
                let p = fedval_linalg::vector::dot(&self.w, x) - y as f64;
                total += p * p;
            }
            Ok(total / data.len() as f64)
        }
        fn grad_with(&self, data: &Dataset, out: &mut [f64], _ws: &mut Workspace) -> f64 {
            out.iter_mut().for_each(|v| *v = 0.0);
            let mut total = 0.0;
            for i in 0..data.len() {
                let (x, y) = data.example(i);
                let p = fedval_linalg::vector::dot(&self.w, x) - y as f64;
                total += p * p;
                fedval_linalg::vector::axpy(2.0 * p / data.len() as f64, x, out);
            }
            total / data.len() as f64
        }
        fn predict(&self, x: &[f64]) -> usize {
            usize::from(fedval_linalg::vector::dot(&self.w, x) > 0.5)
        }
        fn clone_model(&self) -> Box<dyn Model> {
            Box::new(Lsq { w: self.w.clone() })
        }
    }

    fn data() -> Dataset {
        let f = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap();
        Dataset::new(f, vec![0, 1, 1], 2).unwrap()
    }

    #[test]
    fn set_params_roundtrip() {
        let mut m = Lsq { w: vec![0.0, 0.0] };
        m.set_params(&[1.0, 2.0]);
        assert_eq!(m.params(), &[1.0, 2.0]);
        assert_eq!(m.num_params(), 2);
    }

    #[test]
    #[should_panic(expected = "parameter length mismatch")]
    fn set_params_rejects_wrong_length() {
        let mut m = Lsq { w: vec![0.0, 0.0] };
        m.set_params(&[1.0]);
    }

    #[test]
    fn accuracy_counts_correct_predictions() {
        let m = Lsq { w: vec![0.0, 1.0] };
        // predictions: x=(1,0) -> 0 ✓, x=(0,1) -> 1 ✓, x=(1,1) -> 1 ✓
        assert_eq!(m.accuracy(&data()), 1.0);
        let m2 = Lsq { w: vec![1.0, 0.0] };
        // predictions: 1 ✗, 0 ✗, 1 ✓.
        assert!((m2.accuracy(&data()) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn accuracy_of_empty_dataset_is_zero() {
        let m = Lsq { w: vec![0.0, 0.0] };
        let empty = data().subset(&[]);
        assert_eq!(m.accuracy(&empty), 0.0);
    }

    #[test]
    fn boxed_clone_is_deep() {
        let m: Box<dyn Model> = Box::new(Lsq { w: vec![1.0, 2.0] });
        let mut c = m.clone();
        c.params_mut()[0] = 9.0;
        assert_eq!(m.params()[0], 1.0);
        assert_eq!(c.params()[0], 9.0);
    }

    #[test]
    fn finite_difference_agrees_for_quadratic() {
        let mut m = Lsq { w: vec![0.3, -0.7] };
        let err = finite_difference_check(&mut m, &data(), &[0, 1], 1e-5);
        assert!(err < 1e-7, "fd mismatch {err}");
    }
}
