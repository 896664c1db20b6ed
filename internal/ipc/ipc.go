// Package ipc implements transactional profiling across distribution
// (paper §5, §7.4): wrappers for message send and receive operations that
// piggy-back transaction context synopses on application data.
//
// On send, the wrapper computes the sender's transaction context at the
// send point (the call path, suffixed to any inherited context), interns
// it to a 4-byte synopsis, records the (chain → context) association, and
// attaches the synopsis chain to the message. On receive, the wrapper
// inspects the incoming chain: if a chain this endpoint previously sent is
// a proper prefix of it, the message is a *response* — the endpoint
// switches back to the CCT from which the request originated; otherwise
// it is a *request* and the receiver adopts the sender's chain as its
// context prefix.
//
// Messages travel either as values through simulator queues or as framed
// bytes over any io.ReadWriter (see Conn) for real transports.
package ipc

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"

	"whodunit/internal/profiler"
	"whodunit/internal/tranctx"
)

// Msg is one message: the piggy-backed synopsis chain plus application
// data. Data is used by in-memory transports; Payload by wire transports.
type Msg struct {
	Chain   tranctx.Chain
	Data    any
	Payload []byte
}

// Kind classifies a received message.
type Kind uint8

const (
	// Request means the receiver inherits the sender's context.
	Request Kind = iota
	// Response means a prefix of the chain originated at the receiver,
	// which switches back to the originating context (§5).
	Response
)

func (k Kind) String() string {
	if k == Response {
		return "response"
	}
	return "request"
}

// SendRecord is the stitching-metadata trace of one distinct sent chain.
type SendRecord struct {
	Chain    string // rendered synopsis chain
	FromKey  string // TxnCtxt key of the context the send originated from
	FromName string // human-readable context label
}

// sentEntry is one distinct sent chain with the context to restore when
// its response arrives.
type sentEntry struct {
	chain tranctx.Chain
	ctxt  profiler.TxnCtxt
}

// Endpoint is a stage's message-context bookkeeping: the dictionary of
// sent synopsis chains and the contexts to restore when their responses
// arrive. The dictionary is indexed by the chain's last synopsis — on
// Send always one the sending stage's own table issued, so a small dense
// integer (§7.4's synopsis used as what it is) — and each slot holds the
// chains ending there, one per upstream prefix, sorted and found by
// binary search (a prefix is other stages' synopses: a sparse key, but a
// slot holds few). A received chain only ever reads the table: a synopsis
// some other stage issued either indexes nothing or lands in a slot
// where no chain compares equal. The steady-state send/receive path
// hashes nothing and renders no strings; the human-readable SendRecord
// strings are built once per distinct chain.
//
// A response's chain extends a sent chain, so only a prefix as long as
// some sent chain can match: lens keeps the lengths ever sent, and Recv
// searches for those prefixes alone. A stage sends from one or two depths
// of the call graph, and a request reaches it with a chain shorter than
// any it sends: at the seventh tier of a chain that is no search at all
// where every proper prefix cost a failed one.
type Endpoint struct {
	Stage string

	sent    [][]sentEntry // last synopsis -> the sent chains ending in it
	lens    uint64        // bit min(n, 63) set: a chain of n synopses was sent
	lookups uint64        // prefix searches Recv made (Lookups)
	sends   []SendRecord  // append-only: Sends hands it out
}

// NewEndpoint returns an endpoint for the named stage.
func NewEndpoint(stage string) *Endpoint {
	return &Endpoint{Stage: stage}
}

// lenBit is the bit of Endpoint.lens that stands for chains of n
// synopses: bit n, and bit 63 for every length from 63 up.
func lenBit(n int) uint64 { return 1 << min(n, 63) }

// find returns where prefix followed by last sits in a slot's bucket, and
// whether it is there. A bucket is kept sorted (Chain.CompareWith): the
// tier that answers many callers from one context of its own — a database
// replying from its root — has one chain per caller context in one slot.
// The search is written out: through slices.BinarySearchFunc's function
// value BenchmarkSendRecv reads twice as long.
func find(bucket []sentEntry, prefix tranctx.Chain, last tranctx.Synopsis) (int, bool) {
	lo, hi := 0, len(bucket)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch c := bucket[mid].chain.CompareWith(prefix, last); {
		case c < 0:
			lo = mid + 1
		case c > 0:
			hi = mid
		default:
			return mid, true
		}
	}
	return lo, false
}

// lookupSent finds the context recorded for an exact, non-empty chain.
// It never grows the table: ch may come off the wire.
func (e *Endpoint) lookupSent(ch tranctx.Chain) (profiler.TxnCtxt, bool) {
	n := len(ch) - 1
	if last := ch[n]; uint64(last) < uint64(len(e.sent)) {
		if i, ok := find(e.sent[last], ch[:n], last); ok {
			return e.sent[last][i].ctxt, true
		}
	}
	return profiler.TxnCtxt{}, false
}

// Send builds a message carrying data, stamped with the probe's
// transaction context at the send point. The send wrapper of §7.4:
// compute the synopsis, associate the current CCT with it, piggy-back it.
//
// The chain dictionary doubles as an intern table: on a steady-state hit
// the stored chain is returned and Send allocates nothing — the chain is
// only materialised the first time a distinct (prefix, synopsis) pair is
// sent. Chains are immutable by convention throughout the repo (they are
// shared across messages, dictionary entries and stitch records), so
// handing out the stored slice is safe.
func (e *Endpoint) Send(pr *profiler.Probe, data any) Msg {
	at := pr.CallCtxt()
	last := at.Local.Synopsis()
	if int(last) >= len(e.sent) {
		e.sent = append(e.sent, make([][]sentEntry, int(last)+1-len(e.sent))...)
	}
	bucket := e.sent[last]
	i, ok := find(bucket, at.Prefix, last)
	if ok {
		bucket[i].ctxt = pr.Txn() // latest send of a chain wins
		return Msg{Chain: bucket[i].chain, Data: data}
	}
	chain := make(tranctx.Chain, 0, len(at.Prefix)+1)
	chain = append(chain, at.Prefix...)
	chain = append(chain, last)
	e.sent[last] = slices.Insert(bucket, i, sentEntry{chain: chain, ctxt: pr.Txn()})
	e.lens |= lenBit(len(chain))
	e.sends = append(e.sends, SendRecord{Chain: chain.String(), FromKey: pr.Txn().Key(), FromName: pr.Txn().Label()})
	return Msg{Chain: chain, Data: data}
}

// Recv classifies msg and switches the probe's transaction context
// accordingly: requests adopt the sender's chain as prefix (with a fresh
// local context); responses restore the context the matching request was
// sent from. The receive wrapper of §7.4.
func (e *Endpoint) Recv(pr *profiler.Probe, msg Msg) Kind {
	// Longest proper prefix of the incoming chain that we sent.
	for k := e.sentBelow(len(msg.Chain)); k > 0; k = e.sentBelow(k) {
		e.lookups++
		if saved, ok := e.lookupSent(msg.Chain[:k]); ok {
			pr.SetTxn(saved)
			return Response
		}
	}
	// Adopt the sender's chain as prefix directly: chains are immutable
	// by convention, so no defensive copy is taken on this hot path.
	pr.SetTxn(profiler.TxnCtxt{Prefix: msg.Chain, Local: pr.Profiler().Table.Root()})
	return Request
}

// sentBelow returns the largest length under n that a sent chain may
// have, or a value below 1 when there is none: the highest bit of lens
// under n, and above 63 — every such length shares bit 63 — each length
// in turn.
func (e *Endpoint) sentBelow(n int) int {
	if n > 63 {
		if e.lens>>63 != 0 {
			return n - 1
		}
		n = 63
	}
	return bits.Len64(e.lens&(1<<n-1)) - 1
}

// Lookups reports how many prefix searches Recv has made: at most one
// per distinct chain length ever sent and shorter than the received
// chain, whatever the depth of the tier.
func (e *Endpoint) Lookups() uint64 { return e.lookups }

// Distinct reports how many distinct chains the endpoint has sent: it
// grows exactly when a Send materialises a new chain.
func (e *Endpoint) Distinct() int { return len(e.sends) }

// Slots reports the length of the sent dictionary: one slot per synopsis
// up to the largest sent from, so never more than the size of the
// sending stage's context table.
func (e *Endpoint) Slots() int { return len(e.sent) }

// Sends returns the distinct chains this endpoint sent, with the contexts
// they originated from, for post-mortem stitching.
//
// The list is the endpoint's own log, not a copy: read it, do not write
// it. It is capped at its length, and the log is append-only (a record
// is written once, when its chain is first sent), so later sends do not
// change the list a caller holds, and an append to it copies.
func (e *Endpoint) Sends() []SendRecord { return e.sends[:len(e.sends):len(e.sends)] }

// --- Wire transport -------------------------------------------------

// maxFrame bounds wire frames (16 MiB) against corrupt length prefixes.
const maxFrame = 16 << 20

// WriteMsg frames msg onto w: u32 length, chain, payload bytes.
func WriteMsg(w io.Writer, msg Msg) error {
	chain := msg.Chain.AppendWire(nil)
	total := len(chain) + len(msg.Payload)
	if total > maxFrame {
		return fmt.Errorf("ipc: frame too large: %d bytes", total)
	}
	hdr := binary.BigEndian.AppendUint32(nil, uint32(total))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("ipc: write header: %w", err)
	}
	if _, err := w.Write(chain); err != nil {
		return fmt.Errorf("ipc: write chain: %w", err)
	}
	if len(msg.Payload) > 0 {
		if _, err := w.Write(msg.Payload); err != nil {
			return fmt.Errorf("ipc: write payload: %w", err)
		}
	}
	return nil
}

// ReadMsg reads one framed message from r.
func ReadMsg(r io.Reader) (Msg, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Msg{}, fmt.Errorf("ipc: read header: %w", err)
	}
	total := binary.BigEndian.Uint32(hdr[:])
	if total > maxFrame {
		return Msg{}, fmt.Errorf("ipc: frame length %d exceeds max", total)
	}
	buf := make([]byte, total)
	if _, err := io.ReadFull(r, buf); err != nil {
		return Msg{}, fmt.Errorf("ipc: read body: %w", err)
	}
	chain, n, err := tranctx.DecodeChain(buf)
	if err != nil {
		return Msg{}, err
	}
	return Msg{Chain: chain, Payload: buf[n:]}, nil
}

// Conn couples an Endpoint with a byte stream, giving the paper's
// transparent send/receive wrappers over sockets and pipes.
type Conn struct {
	E  *Endpoint
	RW io.ReadWriter
}

// Send wraps Endpoint.Send and writes the frame.
func (c *Conn) Send(pr *profiler.Probe, payload []byte) error {
	msg := c.E.Send(pr, nil)
	msg.Payload = payload
	return WriteMsg(c.RW, msg)
}

// Recv reads one frame, classifies it and switches the probe's context.
func (c *Conn) Recv(pr *profiler.Probe) ([]byte, Kind, error) {
	msg, err := ReadMsg(c.RW)
	if err != nil {
		return nil, Request, err
	}
	kind := c.E.Recv(pr, msg)
	return msg.Payload, kind, nil
}
