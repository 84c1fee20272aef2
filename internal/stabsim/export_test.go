package stabsim

// Hooks for the evaluation-circuit tests in package stabsim_test, which
// import the experiment packages that themselves import stabsim.
var (
	EventProbability = eventProbability
	CheckGapTable    = checkGapTable
)
