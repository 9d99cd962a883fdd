package results

// Exports for the external tests in this directory. They are external so
// they can run a real study through internal/experiment, which imports
// this package.
var (
	ReadJSONOracle = readJSONOracle
	Sample         = sample
	InlineBound    = inlineBound
)

// ReadAheadBound is the most input the decoder holds past its cursor with
// the given number of workers.
func ReadAheadBound(workers int) int { return workers * aheadPerWorker }

// TextBound is WriteJSON's bound on s's text, which decides whether a
// worker encodes it.
func TextBound(s *ScanResult) int { return s.textBound() }
