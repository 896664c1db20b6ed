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

// ServeWindowPair is serveWindowPair, for the allocation pin of package
// whodunit_test.
var ServeWindowPair = serveWindowPair

// Verdict is maxDelta, the alert verdict a served window's retirement
// takes, and RandReport, DiffPair and GraphReport are the generators of
// the diff's quick tests, for the tests of package whodunit_test.
var (
	Verdict     = maxDelta
	RandReport  = randReport
	DiffPair    = diffPair
	GraphReport = graphReport
)

// ReportJSONMemo returns the bytes /report serves for a retired window
// in JSON, building them on the first call.
func ReportJSONMemo(ev *WindowEvent) []byte {
	b, _ := ev.encoded(reportJSON)
	return b
}

// LiveWindow returns what a live /report of s reads: the window in
// progress, under the sequence number it will retire with. Call it from
// s's simulation (a scheduler callback of the served app).
func LiveWindow(s *Server) *Report { return s.liveWindow() }
