//! The stable compute boundary behind the encoding daemon: a [`Job`] goes
//! in, a [`JobOutput`] comes out, and everything stateful (options, the
//! shared minimization memo) lives in a cheaply clonable [`EngineHandle`].
//!
//! The split exists so orchestration — sockets, queues, worker threads,
//! retries — never reaches into algorithm internals: `picola-server` owns
//! the lifecycle, this module owns the compute. Every entry point is
//! panic-free, budget-bounded, and deterministic: two engines with the same
//! config produce bit-identical outputs for the same job regardless of what
//! else ran through them first (the shared [`GlobalMinimizeCache`] preserves
//! the exact order-sensitive keying, so warmth changes work, never results).

use crate::error::PicolaError;
use crate::eval::{evaluate_encoding_cached, EncodingEvaluation, EvalContext, EvalOptions};
use crate::picola::{try_picola_encode_with, PicolaOptions};
use picola_constraints::{Encoding, GroupConstraint};
use picola_logic::{Budget, CacheStats, Completion, GlobalMinimizeCache};
use std::sync::Arc;

/// Configuration shared by every job an [`EngineHandle`] runs.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Options of the PICOLA encoder (cost model, ablations, threads,
    /// refine engine).
    pub picola: PicolaOptions,
    /// Options of the evaluation pipeline (minimizer, cover engine, cache).
    /// `eval.cache = false` is the memo's off switch: every job then
    /// recomputes each constraint function and never touches the memo.
    pub eval: EvalOptions,
    /// Total entry budget of the shared minimization memo; `None` takes
    /// [`picola_logic::DEFAULT_CACHE_CAPACITY`]. The deployment knob behind
    /// the CLI's `--cache-capacity`. Full shards evict by epoch.
    pub cache_capacity: Option<usize>,
    /// Shard count of the shared memo; `None` takes
    /// [`picola_logic::DEFAULT_CACHE_SHARDS`].
    pub cache_shards: Option<usize>,
}

/// One unit of work accepted by [`EngineHandle::run`].
#[derive(Debug, Clone)]
pub enum Job {
    /// Encode `n` symbols under face constraints and price the result.
    Encode {
        /// Number of symbols to encode.
        n: usize,
        /// Face constraints over those symbols.
        constraints: Vec<GroupConstraint>,
    },
    /// Price an existing encoding against face constraints.
    Evaluate {
        /// The encoding to price.
        encoding: Encoding,
        /// Face constraints over its symbols.
        constraints: Vec<GroupConstraint>,
    },
}

/// The result of a [`Job`], always carrying a [`Completion`] so degraded
/// (budget-exhausted) runs are first-class answers, not errors.
#[derive(Debug, Clone)]
pub enum JobOutput {
    /// Output of [`Job::Encode`].
    Encoded {
        /// The produced encoding (valid even when degraded).
        encoding: Encoding,
        /// Its evaluation against the job's constraints.
        evaluation: EncodingEvaluation,
        /// Whether the run finished within budget.
        completion: Completion,
    },
    /// Output of [`Job::Evaluate`].
    Evaluated {
        /// The evaluation of the given encoding.
        evaluation: EncodingEvaluation,
        /// Always [`Completion::Complete`] today — evaluation is priced by
        /// the minimize memo, not the job budget.
        completion: Completion,
    },
}

impl JobOutput {
    /// The completion status of the job.
    pub fn completion(&self) -> &Completion {
        match self {
            JobOutput::Encoded { completion, .. } | JobOutput::Evaluated { completion, .. } => {
                completion
            }
        }
    }

    /// The evaluation carried by the output.
    pub fn evaluation(&self) -> &EncodingEvaluation {
        match self {
            JobOutput::Encoded { evaluation, .. } | JobOutput::Evaluated { evaluation, .. } => {
                evaluation
            }
        }
    }
}

#[derive(Debug)]
struct EngineInner {
    config: EngineConfig,
    global: Arc<GlobalMinimizeCache>,
}

/// A cheaply clonable handle on the compute engine: configuration plus the
/// shared cross-request minimization memo. Every worker thread of the
/// daemon clones one handle; jobs run on the caller's thread under the
/// caller's [`Budget`].
#[derive(Debug, Clone)]
pub struct EngineHandle {
    inner: Arc<EngineInner>,
}

impl Default for EngineHandle {
    fn default() -> Self {
        EngineHandle::new(EngineConfig::default())
    }
}

impl EngineHandle {
    /// Builds an engine with a fresh (cold) shared memo sized by `config`.
    pub fn new(config: EngineConfig) -> EngineHandle {
        let capacity = config
            .cache_capacity
            .unwrap_or(picola_logic::DEFAULT_CACHE_CAPACITY);
        let shards = config
            .cache_shards
            .unwrap_or(picola_logic::DEFAULT_CACHE_SHARDS);
        EngineHandle {
            inner: Arc::new(EngineInner {
                config,
                global: Arc::new(GlobalMinimizeCache::with_capacity_and_shards(
                    capacity, shards,
                )),
            }),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.inner.config
    }

    /// The shared minimization memo (for benches wiring their own
    /// [`EvalContext`]s to the same warmth).
    pub fn global_cache(&self) -> Arc<GlobalMinimizeCache> {
        Arc::clone(&self.inner.global)
    }

    /// Point-in-time statistics of the shared memo
    /// (`hits + misses == calls` across all shards).
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.global.stats()
    }

    /// Builds an [`EvalContext`] over the shared memo (which evaluation
    /// leaves untouched when the config's `eval.cache` is off).
    fn eval_context(&self) -> EvalContext {
        EvalContext::with_global(self.global_cache())
    }

    /// Runs one job to completion (or graceful degradation) under `budget`.
    ///
    /// # Errors
    ///
    /// [`PicolaError::InvalidInput`] for unusable jobs (mismatched symbol
    /// universes, too few symbols); [`PicolaError::Internal`] if a solver
    /// invariant breaks. Budget exhaustion is **not** an error — the output
    /// carries a [`Completion::Degraded`] alongside a valid best-so-far
    /// result.
    pub fn run(&self, job: &Job, budget: &Budget) -> Result<JobOutput, PicolaError> {
        match job {
            Job::Encode { n, constraints } => {
                let result =
                    try_picola_encode_with(*n, constraints, &self.inner.config.picola, budget)?;
                let mut ctx = self.eval_context();
                let evaluation = evaluate_encoding_cached(
                    &result.encoding,
                    constraints,
                    &self.inner.config.eval,
                    &mut ctx,
                );
                Ok(JobOutput::Encoded {
                    encoding: result.encoding,
                    evaluation,
                    completion: result.completion,
                })
            }
            Job::Evaluate {
                encoding,
                constraints,
            } => {
                for (i, c) in constraints.iter().enumerate() {
                    if c.members().universe() != encoding.num_symbols() {
                        return Err(PicolaError::invalid(format!(
                            "constraint {i} ranges over {} symbols, encoding has {}",
                            c.members().universe(),
                            encoding.num_symbols()
                        )));
                    }
                }
                let mut ctx = self.eval_context();
                let evaluation = evaluate_encoding_cached(
                    encoding,
                    constraints,
                    &self.inner.config.eval,
                    &mut ctx,
                );
                Ok(JobOutput::Evaluated {
                    evaluation,
                    completion: Completion::Complete,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picola_constraints::SymbolSet;

    fn groups(n: usize, gs: &[&[usize]]) -> Vec<GroupConstraint> {
        gs.iter()
            .map(|g| GroupConstraint::new(SymbolSet::from_members(n, g.iter().copied())))
            .collect()
    }

    #[test]
    fn encode_jobs_run_and_warm_the_shared_cache() {
        let engine = EngineHandle::default();
        let job = Job::Encode {
            n: 8,
            constraints: groups(8, &[&[0, 1, 2], &[4, 5], &[1, 3, 6]]),
        };
        let first = engine.run(&job, &Budget::unlimited()).expect("first run");
        let second = engine.run(&job, &Budget::unlimited()).expect("second run");
        let (JobOutput::Encoded { encoding: e1, evaluation: v1, .. },
             JobOutput::Encoded { encoding: e2, evaluation: v2, .. }) = (first, second)
        else {
            panic!("encode jobs return Encoded outputs");
        };
        assert_eq!(e1, e2, "same job, same encoding, warm or cold");
        assert_eq!(v1, v2);
        let stats = engine.cache_stats();
        assert_eq!(
            stats.hits + stats.misses,
            u64::try_from(2 * v1.evaluated).expect("fits"),
            "conservation across both runs"
        );
        assert!(stats.hits >= u64::try_from(v1.evaluated).expect("fits"));
    }

    #[test]
    fn evaluate_jobs_price_existing_encodings() {
        let engine = EngineHandle::default();
        let job = Job::Evaluate {
            encoding: Encoding::natural(4),
            constraints: groups(4, &[&[0, 1], &[0, 3]]),
        };
        let out = engine.run(&job, &Budget::unlimited()).expect("runs");
        assert!(out.completion().is_complete());
        assert_eq!(out.evaluation().evaluated, 2);
    }

    #[test]
    fn invalid_jobs_are_errors_not_panics() {
        let engine = EngineHandle::default();
        let too_few = Job::Encode {
            n: 1,
            constraints: vec![],
        };
        assert!(matches!(
            engine.run(&too_few, &Budget::unlimited()),
            Err(PicolaError::InvalidInput(_))
        ));
        let mismatched = Job::Evaluate {
            encoding: Encoding::natural(4),
            constraints: groups(6, &[&[0, 5]]),
        };
        assert!(matches!(
            engine.run(&mismatched, &Budget::unlimited()),
            Err(PicolaError::InvalidInput(_))
        ));
    }

    #[test]
    fn exhausted_budgets_degrade_instead_of_failing() {
        let engine = EngineHandle::default();
        let job = Job::Encode {
            n: 16,
            constraints: groups(16, &[&[0, 1, 2, 3], &[4, 5, 6], &[8, 9], &[10, 12, 14]]),
        };
        let budget = Budget::with_work_limit(1);
        let out = engine.run(&job, &budget).expect("degrades, not errors");
        let JobOutput::Encoded { encoding, completion, .. } = out else {
            panic!("encode jobs return Encoded outputs");
        };
        assert!(!completion.is_complete(), "budget of 1 cannot finish");
        assert_eq!(encoding.num_symbols(), 16, "degraded result is still valid");
    }
}
