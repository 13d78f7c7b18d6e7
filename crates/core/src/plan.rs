//! A job as the host drives the co-processor: phases of limb streams
//! with host steps between them.
//!
//! CoFHEE offloads polynomial add/sub, Hadamard products and NTTs
//! (Table I), so every higher-level primitive is a host-side composition
//! of streams. A [`JobPlan`] writes that composition down once, for any
//! scheme, and is recorded whole before any of it runs: a scheduler
//! prices every phase at once, and a job that cannot be recorded never
//! reaches a die.

use core::fmt;

use crate::stream::OpStream;

/// A phase's outputs: `outputs[limb][output][coefficient]`.
type LimbOutputs = Vec<Vec<Vec<u128>>>;

/// The host work between two phases.
type Step<E> = Box<dyn FnOnce(LimbOutputs) -> Result<(), E> + Send>;

/// One phase of a [`JobPlan`]: a stream per limb, all ready once the
/// phase before has finished.
#[derive(Debug)]
pub struct PlanPhase {
    /// The phase's trace name (`"tensor"`, `"relin"`, ...).
    pub name: &'static str,
    /// Stream `j` runs modulo `moduli[j]`.
    pub moduli: Vec<u128>,
    /// One stream per limb.
    pub streams: Vec<OpStream>,
    /// Key-switch key polynomials the streams upload, over all limbs.
    pub key_polys: usize,
}

/// A job lowered to phases of limb streams, the host steps between them
/// and the finisher of its result.
///
/// `steps[i]` reads the outputs of `phases[i]` and fills the deferred
/// uploads ([`Payload::deferred`](crate::Payload::deferred)) that
/// `phases[i + 1]` was recorded over, so there is one step fewer than
/// there are phases. Steps and finisher own what they need — through an
/// `Arc`, not a copy — and are `Send`.
pub struct JobPlan<T, E> {
    /// The phases, in order.
    pub phases: Vec<PlanPhase>,
    /// The host steps between consecutive phases.
    pub steps: Vec<Step<E>>,
    /// Builds the result from the last phase's outputs.
    pub finish: Box<dyn FnOnce(LimbOutputs) -> Result<T, E> + Send>,
}

impl<T: 'static, E: 'static> JobPlan<T, E> {
    /// The same plan, its result passed through `f` and its errors
    /// converted.
    pub fn map<U: 'static, F: From<E> + 'static>(
        self,
        f: impl FnOnce(T) -> U + Send + 'static,
    ) -> JobPlan<U, F> {
        let finish = self.finish;
        let step = |step: Step<E>| -> Step<F> { Box::new(move |outputs| Ok(step(outputs)?)) };
        JobPlan {
            phases: self.phases,
            steps: self.steps.into_iter().map(step).collect(),
            finish: Box::new(move |outputs| Ok(f(finish(outputs)?))),
        }
    }
}

impl<T, E> fmt::Debug for JobPlan<T, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobPlan")
            .field("phases", &self.phases)
            .field("steps", &self.steps.len())
            .finish_non_exhaustive()
    }
}
