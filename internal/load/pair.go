package load

import "repro/internal/workload"

// runPair drives the hybridcrowd and inference workloads: the filter
// cascade twice over one dataset, first on the plain simulated
// marketplace (the baseline), then on the workload's variant.
//
//   - hybridcrowd routes the first-stage filter to a deterministic LLM
//     worker crowd at a cheaper quote while the second stage stays on the
//     simulated human marketplace; the sim-only baseline rides in the
//     HybridSim* fields.
//   - inference runs EM answer inference with adaptive redundancy: HITs
//     post at MinAssignments and extend one assignment at a time — up to
//     Assignments — while any item's posterior stays below the stopping
//     target; the fixed-redundancy majority baseline rides in the
//     InferBase* fields.
//
// The variant is the headline. Check asserts it reproduces the
// baseline's result fingerprint at strictly lower spend. Everything is
// pumped from one goroutine, so counts are deterministic with noisy
// crowds too; the default crowd is exactly perfect (see withDefaults),
// which makes both fingerprints pure functions of the dataset.
func runPair(cfg Config) (Report, error) {
	rep := Report{Config: cfg}
	ds := workload.Photos(cfg.Tuples, 0.5, 0.6, cfg.Seed)
	v := routed
	if cfg.Workload == WorkloadInference {
		v = adaptive
	}
	phases, err := runPhases(&rep, ds.Oracle, func(i int, s *stack) (phase, error) {
		ph, err := s.run(cascade(ds))
		if i == 0 {
			return ph, err
		}
		if s.router != nil {
			counts, saved := s.router.Counts()
			rep.BackendSimHITs, rep.BackendLLMHITs, rep.RoutedSavedCents = counts["sim"], counts["llm"], saved
		}
		st := s.mgr.InferenceStats()
		rep.InferAdaptiveHITs, rep.InferExtensions = st.AdaptiveHITs, st.Extensions
		rep.InferExtendFailures, rep.InferSavedCents = st.ExtendFailures, st.SavedCents
		return ph, err
	}, plain, v)
	if err != nil {
		return rep, err
	}
	base := phases[0]
	rep.set(phases[1])
	if v == routed {
		rep.HybridSimHITs, rep.HybridSimSpent, rep.HybridSimFNV = base.HITs, base.Spent, base.FNV
	} else {
		rep.InferBaseHITs, rep.InferBaseAssignments = base.HITs, base.Assignments
		rep.InferBaseSpent, rep.InferBaseFNV = base.Spent, base.FNV
	}
	return rep, nil
}
