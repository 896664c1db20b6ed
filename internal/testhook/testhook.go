// Package testhook counts work the library does that only tests ask
// about, for tests outside the package that does it.
package testhook

import "sync/atomic"

// AutoDiffs counts the served windows' auto-diffs built: the first
// calls of whodunit.WindowEvent.Diff that found a previous window.
var AutoDiffs atomic.Int64
