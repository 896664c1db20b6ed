package ipc

import (
	"bytes"
	"encoding/binary"
	"testing"

	"whodunit/internal/tranctx"
)

// FuzzReadMsg asserts ReadMsg on any bytes returns a message or an
// error and never panics, and that a message it returns, written again
// with WriteMsg, reads back equal.
func FuzzReadMsg(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteMsg(&valid, Msg{Chain: tranctx.Chain{1, 0xdeadbeef}, Payload: []byte("payload")}); err != nil {
		f.Fatal(err)
	}
	frame := valid.Bytes()
	f.Add(frame)
	f.Add(frame[:3])            // a cut header
	f.Add(frame[:len(frame)-2]) // a cut body
	// A chain of 65 synopses, one over the most a frame may carry.
	long := binary.BigEndian.AppendUint32(nil, 1+4*65)
	long = append(long, 65)
	f.Add(append(long, make([]byte, 4*65)...))
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame+1)) // a length over maxFrame
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := ReadMsg(bytes.NewReader(data))
		if err != nil {
			return
		}
		var wire bytes.Buffer
		if err := WriteMsg(&wire, msg); err != nil {
			t.Fatalf("WriteMsg of a read message: %v", err)
		}
		back, err := ReadMsg(&wire)
		if err != nil {
			t.Fatalf("rewritten message does not read: %v", err)
		}
		if !back.Chain.Equal(msg.Chain) || !bytes.Equal(back.Payload, msg.Payload) || wire.Len() != 0 {
			t.Fatalf("read %v %q, rewritten and read again %v %q (%d bytes left)",
				msg.Chain, msg.Payload, back.Chain, back.Payload, wire.Len())
		}
	})
}
