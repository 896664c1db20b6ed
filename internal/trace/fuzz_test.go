package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadTrace: malformed and truncated inputs must salvage-or-error,
// never panic; and whatever Read salvages must survive a Write/Read
// round trip unchanged, name tables included (re-reading a salvaged
// trace loses nothing).
func FuzzReadTrace(f *testing.F) {
	var full bytes.Buffer
	cfg := CacheTrace()
	cfg.Events = 20
	if err := Write(&full, Gen(cfg)); err != nil {
		f.Fatal(err)
	}
	f.Add(full.Bytes())
	f.Add(full.Bytes()[:full.Len()*2/3]) // truncated mid-line
	f.Add([]byte(""))
	f.Add([]byte(`{"format":"whodunit-trace/v1","events":2}`))
	f.Add([]byte(`{"format":"whodunit-trace/v1","events":1}` + "\n" + `{"t":-5,"op":"get"}`))
	f.Add([]byte(`{"format":"whodunit-trace/v1"}` + "\n" + `{"t":1,"op":"get","key":"k","size":1}` + "\nnot json\n" + `{"t":2,"op":"get","key":"k","size":1}`))
	f.Add([]byte("garbage header\n{}"))
	f.Add([]byte(`{"format":"other/v1","events":0}`))
	f.Add([]byte(`{"format":"whodunit-trace/v1","events":99999}` + "\n" + `{"t":1,"stream":0,"op":"set","key":"x","size":0}`))
	stream, op := outOfRangeTraces()
	f.Add(stream)
	f.Add(op)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, tr); err != nil {
			t.Fatalf("re-encoding a salvaged trace failed: %v", err)
		}
		again, err := Read(&out)
		if err != nil {
			t.Fatalf("re-reading a salvaged trace failed: %v", err)
		}
		if again.Lost != 0 {
			t.Fatalf("re-read lost %d events of a complete re-encoding", again.Lost)
		}
		tr.Lost = 0
		if !reflect.DeepEqual(tr, again) {
			t.Fatalf("round trip changed the salvaged trace (%d vs %d events)", len(tr.Events), len(again.Events))
		}
	})
}
