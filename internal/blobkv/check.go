//lint:file-allow rawload — invariant checking inspects the raw durable image of
// a recovered (quiescent) store; records are immutable once published and the
// checker runs before any concurrent mutator exists.

package blobkv

import (
	"fmt"

	"pmwcas/internal/alloc"
	"pmwcas/internal/index"
	"pmwcas/internal/keycodec"
	"pmwcas/internal/nvram"
)

// Check audits the blob layer of a (recovered, quiescent) store: every
// index entry's value must be a well-formed record block whose embedded
// key matches the index.
//
// entries is the content of the index the layer is on, as its Check
// returns it. The returned blocks are the record blocks the blob layer
// reaches beyond the index's own blocks; blobs is the decoded logical
// contents for a durable-linearizability oracle.
func Check(dev *nvram.Device, a *alloc.Allocator, entries []index.Entry) ([]nvram.Offset, map[string][]byte, error) {
	var blocks []nvram.Offset
	blobs := make(map[string][]byte, len(entries))
	for _, e := range entries {
		rec := nvram.Offset(e.Value)
		size, err := a.BlockSize(rec)
		if err != nil {
			return nil, nil, fmt.Errorf("blobkv: record %#x is not a valid block: %w", rec, err)
		}
		n := dev.Load(rec + recLenOff)
		if n > MaxValueLen || recHeader+n > size {
			return nil, nil, fmt.Errorf("blobkv: record %#x claims %d bytes in a %d-byte block", rec, n, size)
		}
		if k := dev.Load(rec + recKeyOff); k != e.Key {
			return nil, nil, fmt.Errorf("blobkv: record %#x embeds key %#x, index says %#x", rec, k, e.Key)
		}
		key, err := keycodec.Decode(e.Key)
		if err != nil {
			return nil, nil, fmt.Errorf("blobkv: index key %#x does not decode: %w", e.Key, err)
		}
		blocks = append(blocks, rec)
		blobs[string(key)] = readRecordRaw(dev, rec)
	}
	return blocks, blobs, nil
}

// readRecordRaw copies a record's payload straight off the device (the
// quiescent-image counterpart of Store.appendRecord).
func readRecordRaw(dev *nvram.Device, rec nvram.Offset) []byte {
	n := int(dev.Load(rec + recLenOff))
	out := make([]byte, n)
	for i := 0; i < n; i += 8 {
		w := dev.Load(rec + recDataOff + nvram.Offset(i))
		for j := 0; j < 8 && i+j < n; j++ {
			out[i+j] = byte(w >> (8 * j))
		}
	}
	return out
}
