package wire

import (
	"testing"
)

// benchReq is a representative PUT: the most field-complete request the
// point-op path carries.
var benchReq = Request{
	Op:    OpPut,
	Key:   []byte("user:10042"),
	Value: []byte("a medium-size value payload, 42 bytes long"),
}

// rtState is one connection's worth of reusable codec state, mirroring
// what serveConn and a pipelining client hold per connection.
type rtState struct {
	reqBuf  []byte
	respBuf []byte
	entries []Entry
	one     [1]Entry
}

// roundTrip encodes a request, decodes it, encodes the response a server
// would send, and decodes that — the full codec cost of one pipelined
// PUT — reusing every buffer the way a connection loop does.
func (s *rtState) roundTrip() error {
	s.reqBuf = AppendRequest(s.reqBuf[:0], &benchReq)
	req, err := DecodeRequest(s.reqBuf)
	if err != nil {
		return err
	}
	s.one[0] = Entry{Key: req.Key, Value: req.Value}
	s.respBuf = AppendResponse(s.respBuf[:0], &Response{
		Status:  StatusOK,
		Entries: s.one[:],
	})
	resp, err := DecodeResponseInto(s.respBuf, s.entries[:0])
	if err != nil {
		return err
	}
	if cap(resp.Entries) > cap(s.entries) {
		s.entries = resp.Entries
	}
	return nil
}

// BenchmarkWireRoundTrip times encoding and decoding one request and one
// response with reused buffers; TestWireRoundTripAllocFree pins the
// allocation count.
func BenchmarkWireRoundTrip(b *testing.B) {
	var s rtState
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.roundTrip(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWireRoundTripAllocFree pins the budget exactly: once buffers have
// reached steady-state capacity, a full request/response round trip
// performs zero heap allocations. This is the test half of the
// //pmwcas:hotpath contract on the codec functions — the static analyzer
// proves no allocation site is reachable, this proves the dynamic count.
func TestWireRoundTripAllocFree(t *testing.T) {
	var s rtState
	// Warm up: let every buffer grow to steady state.
	for i := 0; i < 3; i++ {
		if err := s.roundTrip(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.roundTrip(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("wire round trip allocates %.1f times per op, want 0", allocs)
	}
}
