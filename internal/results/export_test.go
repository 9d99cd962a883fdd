package results

// Exports for the external tests in this directory. They are external so
// they can run a real study through internal/experiment, which imports
// this package.
var (
	ReadJSONOracle = readJSONOracle
	Sample         = sample
)
