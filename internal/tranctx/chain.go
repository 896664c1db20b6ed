package tranctx

import (
	"cmp"
	"encoding/binary"
	"fmt"
)

// Chain is the synopsis chain piggy-backed on messages (§7.4). A request
// carries [synopsis(α)] — the sender's context at the send point. A
// response carries [synopsis(α), synopsis(β)] — the original request
// synopsis followed by the callee's call-path synopsis, rendered
// "synopsis(α)#synopsis(β)". The receiver of a response recognises that a
// prefix of the chain originated from itself and infers "this is a reply",
// switching back to the CCT from which the request was issued, rather than
// inheriting the callee's context (§5).
type Chain []Synopsis

// String renders the chain with the paper's '#' delimiter: each synopsis
// as 8 lower-case hex digits. The encoder is hand-rolled — this renders
// on profiling hot paths (endpoint dictionaries, crosstalk classifiers),
// where fmt's machinery dominated the cost of the string itself.
func (ch Chain) String() string {
	if len(ch) == 0 {
		return ""
	}
	buf := make([]byte, 0, 9*len(ch)-1)
	for i, s := range ch {
		if i > 0 {
			buf = append(buf, '#')
		}
		v := uint32(s)
		for shift := 28; shift >= 0; shift -= 4 {
			buf = append(buf, "0123456789abcdef"[(v>>uint(shift))&0xF])
		}
	}
	return string(buf)
}

// Hash returns a 64-bit FNV-1a hash of the chain's synopses. The profiler
// keys its CCT dictionary by (chain hash, local synopsis) — a prefix chain
// is made of other stages' synopses, so there the key really is sparse —
// and steady-state context lookups build no strings; callers must confirm
// candidate hits with Equal since distinct chains may collide.
func (ch Chain) Hash() uint64 {
	h := uint64(14695981039346656037)
	for _, s := range ch {
		h ^= uint64(s)
		h *= 1099511628211
	}
	return h
}

// HashWith returns the hash of the chain that would result from appending
// last to ch, without materialising it. FNV-1a folds left to right, so the
// extended hash is one more fold over Hash's result. No send or receive
// path hashes a chain any more (ipc.Endpoint indexes by the last synopsis
// and searches the slot with CompareWith); the hash-keyed endpoint kept as
// a test oracle is what still calls this, and EqualWith.
func (ch Chain) HashWith(last Synopsis) uint64 {
	h := ch.Hash()
	h ^= uint64(last)
	h *= 1099511628211
	return h
}

// EqualWith reports whether ch equals prefix followed by last — again
// without materialising the appended chain.
func (ch Chain) EqualWith(prefix Chain, last Synopsis) bool {
	if len(ch) != len(prefix)+1 {
		return false
	}
	for i := range prefix {
		if ch[i] != prefix[i] {
			return false
		}
	}
	return ch[len(prefix)] == last
}

// CompareWith orders ch against prefix followed by last — by length, then
// element by element — again without materialising the appended chain. It
// is the order an endpoint keeps the chains of one dictionary slot in.
func (ch Chain) CompareWith(prefix Chain, last Synopsis) int {
	if c := cmp.Compare(len(ch), len(prefix)+1); c != 0 {
		return c
	}
	for i := range prefix {
		if c := cmp.Compare(ch[i], prefix[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(ch[len(prefix)], last)
}

// chainMax bounds decoded chains; real chains have 1 or 2 entries
// (request / response) but stitching records may concatenate a few more.
const chainMax = 64

// AppendWire appends the chain's wire form to buf: a 1-byte count followed
// by count big-endian 4-byte synopses. The encoding is deliberately tiny —
// the 4-byte synopsis is the whole point of §7.4.
func (ch Chain) AppendWire(buf []byte) []byte {
	if len(ch) > chainMax {
		panic("tranctx: chain too long to encode")
	}
	buf = append(buf, byte(len(ch)))
	for _, s := range ch {
		buf = binary.BigEndian.AppendUint32(buf, uint32(s))
	}
	return buf
}

// WireSize reports the encoded size in bytes.
func (ch Chain) WireSize() int { return 1 + 4*len(ch) }

// DecodeChain parses a chain from the front of buf, returning the chain
// and the number of bytes consumed.
func DecodeChain(buf []byte) (Chain, int, error) {
	if len(buf) < 1 {
		return nil, 0, fmt.Errorf("tranctx: short chain header")
	}
	n := int(buf[0])
	if n > chainMax {
		return nil, 0, fmt.Errorf("tranctx: chain length %d exceeds max %d", n, chainMax)
	}
	need := 1 + 4*n
	if len(buf) < need {
		return nil, 0, fmt.Errorf("tranctx: chain truncated: need %d bytes, have %d", need, len(buf))
	}
	ch := make(Chain, n)
	for i := 0; i < n; i++ {
		ch[i] = Synopsis(binary.BigEndian.Uint32(buf[1+4*i:]))
	}
	return ch, need, nil
}

// Equal reports element-wise equality.
func (ch Chain) Equal(other Chain) bool {
	if len(ch) != len(other) {
		return false
	}
	for i := range ch {
		if ch[i] != other[i] {
			return false
		}
	}
	return true
}
