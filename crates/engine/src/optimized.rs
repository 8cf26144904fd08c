//! Regression tests of the output-sensitive operators.
//!
//! The list-based operators that once lived here were replaced by the
//! batch kernels in [`crate::kernels`]. Their fixtures and assertions are
//! kept, unchanged, and now run on those kernels against the paper's
//! Algorithm 1 operators in [`crate::naive`].

#[cfg(test)]
mod tests {
    use crate::batch::IncidentBatch;
    use crate::incident::Incident;
    use crate::kernels::combine_batch;
    use crate::naive;
    use wlq_log::{IsLsn, Wid};
    use wlq_pattern::Op;

    const WID: Wid = Wid(1);

    fn inc(ps: &[u32]) -> Incident {
        Incident::from_positions(WID, ps.iter().map(|&p| IsLsn(p)).collect())
    }

    fn run(op: Op, left: &[Incident], right: &[Incident]) -> Vec<Incident> {
        let lb = IncidentBatch::from_incidents(WID, left);
        let rb = IncidentBatch::from_incidents(WID, right);
        combine_batch(op, &lb, &rb).into_incidents()
    }

    fn consecutive_eval(l: &[Incident], r: &[Incident]) -> Vec<Incident> {
        run(Op::Consecutive, l, r)
    }

    fn sequential_eval(l: &[Incident], r: &[Incident]) -> Vec<Incident> {
        run(Op::Sequential, l, r)
    }

    fn choice_eval(l: &[Incident], r: &[Incident]) -> Vec<Incident> {
        run(Op::Choice, l, r)
    }

    fn parallel_eval(l: &[Incident], r: &[Incident]) -> Vec<Incident> {
        run(Op::Parallel, l, r)
    }

    /// Builds an interesting, sorted incident list fixture.
    fn fixture_a() -> Vec<Incident> {
        let mut v = vec![
            inc(&[1]),
            inc(&[1, 2]),
            inc(&[2]),
            inc(&[3, 5]),
            inc(&[4]),
            inc(&[6, 7, 8]),
        ];
        v.sort_unstable();
        v
    }

    fn fixture_b() -> Vec<Incident> {
        let mut v = vec![inc(&[2, 3]), inc(&[3]), inc(&[5]), inc(&[6]), inc(&[9])];
        v.sort_unstable();
        v
    }

    #[test]
    fn consecutive_matches_naive() {
        let (a, b) = (fixture_a(), fixture_b());
        assert_eq!(consecutive_eval(&a, &b), naive::consecutive_eval(&a, &b));
        assert_eq!(consecutive_eval(&b, &a), naive::consecutive_eval(&b, &a));
    }

    #[test]
    fn sequential_matches_naive() {
        let (a, b) = (fixture_a(), fixture_b());
        assert_eq!(sequential_eval(&a, &b), naive::sequential_eval(&a, &b));
        assert_eq!(sequential_eval(&b, &a), naive::sequential_eval(&b, &a));
    }

    #[test]
    fn choice_matches_naive() {
        let (a, b) = (fixture_a(), fixture_b());
        assert_eq!(choice_eval(&a, &b), naive::choice_eval(&a, &b));
        // Overlapping inputs exercise the dedup path.
        assert_eq!(choice_eval(&a, &a), naive::choice_eval(&a, &a));
        assert_eq!(choice_eval(&a, &a), a);
    }

    #[test]
    fn parallel_matches_naive() {
        let (a, b) = (fixture_a(), fixture_b());
        assert_eq!(parallel_eval(&a, &b), naive::parallel_eval(&a, &b));
        assert_eq!(parallel_eval(&a, &a), naive::parallel_eval(&a, &a));
    }

    #[test]
    fn empty_inputs() {
        let a = fixture_a();
        assert!(consecutive_eval(&[], &a).is_empty());
        assert!(sequential_eval(&a, &[]).is_empty());
        assert_eq!(choice_eval(&[], &a), a);
        assert!(parallel_eval(&[], &a).is_empty());
    }
}
