package experiments

// Config tunes the randomized experiments.
type Config struct {
	// Seed drives the random adversaries.
	Seed int64
	// Trials is the number of random runs per randomized experiment.
	Trials int
	// Parallelism is the worker count for the scenario sweeps and the
	// exhaustive model checks (0 = one worker per CPU). It never changes
	// the numbers: batches are deterministic and order-preserving, and
	// the model checker reassembles its reports in enumeration order.
	Parallelism int
}

// DefaultConfig is used by cmd/ebabench when no flags are given.
var DefaultConfig = Config{Seed: 20230510, Trials: 400}

// Generators returns every experiment as a named generator, in order, so
// that callers can time or select individual tables.
func Generators(cfg Config) []func() *Table {
	return []func() *Table{
		E1MessageComplexity,
		E2FailureFreeZero,
		E3FailureFreeOnes,
		E4Example71,
		func() *Table { return E20EarlyStopping(cfg.Seed, cfg.Trials, cfg.Parallelism) },
		func() *Table { return E6TheoremMatrix(cfg.Parallelism) },
		E11BasicVsMin,
		func() *Table { return E12BasicVsFip(cfg.Seed, cfg.Trials, cfg.Parallelism) },
		E15CommonKnowledgeAblation,
		func() *Table { return E16DropProbabilitySweep(cfg.Seed, cfg.Trials/4+1, cfg.Parallelism) },
	}
}

// All regenerates every experiment table in order.
func All(cfg Config) []*Table {
	gens := Generators(cfg)
	tables := make([]*Table, len(gens))
	for i, gen := range gens {
		tables[i] = gen()
	}
	return tables
}
