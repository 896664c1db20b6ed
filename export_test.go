package whodunit

// RefReadReport is the oracle refReadReport, for the fuzzers of package
// whodunit_test.
var RefReadReport = refReadReport
