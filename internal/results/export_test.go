package results

import "unsafe"

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

// DecodeWhole decodes text as one whole scan object, as the dataset
// decoder's look-ahead does (nil when it is not one).
func DecodeWhole(text []byte) *ScanResult {
	var d decoder
	return d.whole(text, 0)
}

// ColumnBytes is the storage behind a scan's address, row and banner
// columns, by capacity.
func ColumnBytes(s *ScanResult) int {
	width := 4
	if s.addrs.isWide {
		width = 16
	}
	return s.addrs.cap()*width + cap(s.rows)*int(unsafe.Sizeof(row{})) + cap(s.banner)*int(unsafe.Sizeof(s.banner[0]))
}
