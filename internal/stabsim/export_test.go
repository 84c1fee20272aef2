package stabsim

// Hooks for the evaluation-circuit tests in package stabsim_test, which
// import the experiment packages that themselves import stabsim.
var (
	EventProbability = eventProbability
	CheckGapTable    = checkGapTable
	TransposedShot   = transposedShot
)

// SiteWords is the X and Z words of one noise site: X2 and Z2 are the
// second qubit's for a Depolarize2 pair, and a readout flip's word is X.
type SiteWords struct{ X, Z, X2, Z2 uint64 }

// CompiledSites returns the words of s's noise sites in draw order.
func CompiledSites(s *Sensitivities) []SiteWords {
	ws := make([]SiteWords, len(s.sites))
	for i, st := range s.sites {
		ws[i] = SiteWords{st.x, st.z, st.x2, st.z2}
	}
	return ws
}
