package whodunit

// RefReadReport is the oracle refReadReport, for the fuzzers of package
// whodunit_test.
var RefReadReport = refReadReport

// RefDiff and RefFoldedDiff are the oracles refDiff and refFoldedDiff,
// for the tests of package whodunit_test.
var (
	RefDiff       = refDiff
	RefFoldedDiff = refFoldedDiff
)

// ReportJSONMemo returns the bytes /report serves for a retired window
// in JSON, building them on the first call.
func ReportJSONMemo(ev *WindowEvent) []byte {
	b, _ := ev.encoded(reportJSON)
	return b
}
