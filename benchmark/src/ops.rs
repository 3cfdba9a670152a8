//! The tally behind `fail_frac`: failed ÷ attempted operations.
//!
//! An operation is one cell run, one pass, one request, one rung or one
//! check the benchmark makes on its own output. Whatever is wrong with an
//! operation is attached to it, so `failed` never exceeds `attempted`.

/// Operations attempted and failed, with every problem found.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// One line per problem; a failed operation may have several.
    pub problems: Vec<String>,
}

impl Ops {
    /// Count one operation. It failed if it has any problem.
    pub fn record(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }

    /// Count one operation that failed unless `outcome` is `Ok`; hands
    /// back the value.
    pub fn value<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        match outcome {
            Ok(v) => {
                self.record(Vec::new());
                Some(v)
            }
            Err(e) => {
                self.record(vec![e]);
                None
            }
        }
    }

    /// Fold in another tally.
    pub fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }

    /// `fail_frac`; 0 when nothing was attempted.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_operation_with_several_problems_fails_once() {
        let mut ops = Ops::default();
        ops.record(vec![]);
        ops.record(vec!["digest differs".into(), "verification failed".into()]);
        assert_eq!(ops.value(Ok::<_, String>(7)), Some(7));
        assert_eq!(ops.value(Err::<u8, _>("no pong".into())), None);
        assert_eq!((ops.attempted, ops.failed), (4, 2));
        assert_eq!(ops.problems.len(), 3);
        assert_eq!(ops.fail_frac(), 0.5);
        let mut all = Ops::default();
        assert_eq!(all.fail_frac(), 0.0);
        all.absorb(ops);
        assert_eq!((all.attempted, all.failed), (4, 2));
    }
}
