package core

// Synthetic-data helpers shared with the external core_test package.
var (
	SyntheticMachine  = testMachine
	SynthTrainingRuns = synthTrainingRuns
)
