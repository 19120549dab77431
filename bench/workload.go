package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"

	"pmwcas/internal/harness"
	"pmwcas/internal/keycodec"
)

// Fixed conditions shared by every workload (README "Fixed conditions").
const (
	nClients  = 2       // closed loop, one goroutine each; constant, not nproc
	nKeys     = 1 << 16 // preloaded rows, far more than clients
	valueLen  = 64      // blob value bytes; word indexes store the 8-byte tag alone
	scanLimit = 50
	streamLen = 1 << 20 // pre-generated ops per client; replayed cyclically if a run outlasts it
	mixBlock  = 20      // ops per stratified block: each block holds the mix exactly
)

// Operation kinds. The order is the column order of every per-kind table.
const (
	opGet = iota
	opPut
	opDel
	opScan
	nKinds
)

var kindName = [nKinds]string{"get", "put", "del", "scan"}

// A workload is one row of README's workload table.
type workload struct {
	name   string
	why    string
	net    bool   // through server.New on loopback TCP; otherwise on index handles in-process
	depth  int    // requests in flight per connection (net only)
	index  string // skiplist (blob values), bwtree or hash (word values)
	shards int
	mix    [nKinds]int // ops of each kind per mixBlock
	zipf   bool
}

// Every workload carries GETs and PUTs, because every end-to-end metric must
// exist and be non-zero on every workload (README "Departures").
var workloads = []workload{
	{name: "net-get-p1", net: true, depth: 1, index: "skiplist", shards: 1, mix: [nKinds]int{opGet: 19, opPut: 1},
		why: "TCP depth 1, 95% GET: what a synchronous reader sees; socket+wire+server are ~80% of a GET, so core/persist changes should not move get_p50_us here"},
	{name: "net-mixed-p16", net: true, depth: 16, index: "skiplist", shards: 1, mix: [nKinds]int{opGet: 10, opPut: 10},
		why: "TCP depth 16, 50% GET / 50% overwrite PUT: server capacity with batching in play; every layer does real work"},
	{name: "embed-mixed", index: "skiplist", shards: 1, mix: [nKinds]int{opGet: 10, opPut: 10},
		why: "the net-mixed-p16 op stream on BlobKV handles with no TCP: differs by exactly the wire/server/socket layers"},
	{name: "net-churn-scan", net: true, depth: 4, index: "skiplist", shards: 2, mix: [nKinds]int{opGet: 2, opPut: 7, opDel: 7, opScan: 4},
		why: "TCP depth 4, 35% PUT / 35% DELETE / 20% SCAN(50) / 10% GET on 2 shards: inserts, unlinks, reclamation, shard routing, the allocating scan path"},
	{name: "embed-bwtree-mixed", index: "bwtree", shards: 1, mix: [nKinds]int{opGet: 10, opPut: 10},
		why: "the mixed stream on BwTree handles with word values: second index; delta chains and consolidation are background work the skiplist lacks"},
	{name: "embed-hash-zipf", index: "hash", shards: 1, mix: [nKinds]int{opGet: 10, opPut: 10}, zipf: true,
		why: "50% Get / 50% upsert on HashTable handles with Zipf keys: third index and the only skewed workload; hot keys make PMwCAS conflicts and helping do the work"},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// An op is one pre-generated request: a kind and a key index in [0, nKeys).
type op struct {
	kind uint8
	key  uint32
}

// genStream builds one client's op stream from the seed alone. Kinds are
// stratified: every block of mixBlock ops holds the mix exactly, in an order
// the seed shuffles, so ops-weighted counts (flushes/op) do not vary with the
// seed's luck in drawing the mix.
func genStream(w *workload, seed int64, client, n int) []op {
	base := seed*1000003 + int64(client)
	rng := rand.New(rand.NewSource(base)) // orders the kinds within each block
	dist := harness.Uniform
	if w.zipf {
		dist = harness.Zipf
	}
	keygen := harness.NewKeyGen(dist, nKeys, base+nClients) // draws keys in [1, nKeys] from a stream of its own
	var deck []uint8
	for k, share := range w.mix {
		for i := 0; i < share; i++ {
			deck = append(deck, uint8(k))
		}
	}
	if len(deck) != mixBlock {
		panic(fmt.Sprintf("workload %s: mix sums to %d, want %d", w.name, len(deck), mixBlock))
	}
	out := make([]op, n)
	for i := range out {
		if i%mixBlock == 0 {
			rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		}
		out[i] = op{kind: deck[i%mixBlock], key: uint32(keygen.Next() - 1)}
	}
	return out
}

// genStreams builds every client's stream.
func genStreams(w *workload, seed int64, n int) [][]op {
	out := make([][]op, nClients)
	for c := range out {
		out[c] = genStream(w, seed, c, n)
	}
	return out
}

// streamHash fingerprints a set of streams; the tests pin it per seed.
func streamHash(streams [][]op) uint64 {
	h := fnv.New64a()
	var b [5]byte
	for _, s := range streams {
		for _, o := range s {
			b[0] = o.kind
			binary.LittleEndian.PutUint32(b[1:], o.key)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// keyTable renders every key once, so the timed loop formats nothing: key i
// is the 7-hex-digit string of i (order-preserving, within the codec's 7
// bytes) and, for the word indexes, that string's keycodec word.
type keyTable struct {
	bytes [][]byte
	words []uint64
}

func newKeyTable(n int) *keyTable {
	t := &keyTable{bytes: make([][]byte, n), words: make([]uint64, n)}
	for i := range t.bytes {
		t.bytes[i] = fmt.Appendf(nil, "%07x", i)
		t.words[i] = keycodec.MustEncode(string(t.bytes[i]))
	}
	return t
}

// keyIndex recovers a key's index from its rendered bytes (SCAN responses).
func keyIndex(key []byte) (int, bool) {
	if len(key) != 7 {
		return 0, false
	}
	n := 0
	for _, c := range key {
		switch {
		case c >= '0' && c <= '9':
			n = n<<4 | int(c-'0')
		case c >= 'a' && c <= 'f':
			n = n<<4 | int(c-'a'+10)
		default:
			return 0, false
		}
	}
	return n, true
}

// A tag is what every written value carries: the writing client, that
// client's op sequence number, and the low 16 bits of the key, packed into 56
// bits so it is also a legal word-index value. Blob values are the tag in
// their first 8 bytes followed by filler.
//
//	seq<<24 | key16<<8 | client+1
type tag = uint64

func makeTag(client int, seq uint64, key int) tag {
	return seq<<24 | uint64(key&0xffff)<<8 | uint64(client+1)
}

func tagClient(t tag) int { return int(t&0xff) - 1 }

// tagFits reports whether a value read under key could have been written
// there by this benchmark: the cheap per-read output check.
func tagFits(t tag, key int) bool {
	c := tagClient(t)
	return c >= 0 && c <= nClients && int(t>>8&0xffff) == key&0xffff
}

// scannedEntry validates one entry of a scan that has so far reached key
// index prev: a well-formed key beyond prev whose value belongs to it. It
// returns the entry's key index.
func scannedEntry(prev int, key, val []byte) (int, bool) {
	ki, okKey := keyIndex(key)
	t, okVal := valueTag(val)
	return ki, okKey && okVal && ki > prev && tagFits(t, ki)
}

// preloader is the client id the set-up phase writes under.
const preloader = nClients

func newValue() []byte {
	v := make([]byte, valueLen)
	for i := range v {
		v[i] = byte('a' + i%26)
	}
	return v
}

func setValueTag(v []byte, t tag) { binary.LittleEndian.PutUint64(v, t) }

func valueTag(v []byte) (tag, bool) {
	if len(v) != valueLen {
		return 0, false
	}
	return binary.LittleEndian.Uint64(v), true
}
