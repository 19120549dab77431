package main

import (
	"fmt"
	"time"

	"pmwcas"
)

const crashCycles = 3

// checkDurable judges one key of the recovered store against every writer's
// last acknowledged mutation of it (lasts[c][key]: a tag, deleted, or 0 for
// never). A present value tagged (c, s) must be exactly client c's last
// acknowledged write to the key: an older one is a lost write, and any value
// after c's acknowledged DELETE is a resurrection. An absent key needs a
// writer whose last acknowledged mutation of it was a DELETE.
func checkDurable(lasts [][]uint64, key int, t tag, found bool) error {
	if !found {
		for _, last := range lasts {
			if last[key] == deleted {
				return nil
			}
		}
		return fmt.Errorf("key %d is absent but no client's last acknowledged mutation deleted it", key)
	}
	c := tagClient(t)
	if c < 0 || c >= len(lasts) || !tagFits(t, key) {
		return fmt.Errorf("key %d holds tag %#x that no client wrote there", key, t)
	}
	switch want := lasts[c][key]; {
	case want == t:
		return nil
	case want == deleted:
		return fmt.Errorf("key %d holds client %d's seq %d, resurrected after that client's acknowledged DELETE", key, c, t>>24)
	default:
		return fmt.Errorf("key %d holds client %d's seq %d but its last acknowledged write was seq %d: lost write", key, c, t>>24, want>>24)
	}
}

// recovery is what the crash-recovery check found.
type recovery struct {
	crashMs, recoverMs []float64
	stats              pmwcas.RecoveryStats
	checked            uint64 // keys read back
	violations         uint64
	first              error
	liveBytes          uint64 // key+value bytes of the keys present after recovery
	memBytes           uint64 // Store.MemoryInUse after recovery
}

// crashAndCheck is the durability check every run ends with. Clients are
// quiescent and their connections closed. It stops the server, cuts power
// and recovers crashCycles times (timing each), audits the store's
// invariants, then reads every key through a fresh handle.
func (t *target) crashAndCheck(lasts [][]uint64) (*recovery, error) {
	if err := t.stopServer(); err != nil {
		return nil, fmt.Errorf("server shutdown: %w", err)
	}
	rec := &recovery{}
	for i := 0; i < crashCycles; i++ {
		t0 := time.Now()
		if err := t.store.Crash(); err != nil {
			return nil, err
		}
		t1 := time.Now()
		st, err := t.store.Recover()
		if err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		rec.crashMs = append(rec.crashMs, float64(t1.Sub(t0))/1e6)
		rec.recoverMs = append(rec.recoverMs, float64(time.Since(t1))/1e6)
		if i == 0 {
			rec.stats = st
		}
	}
	if _, err := t.store.CheckInvariants(pmwcas.CheckOptions{Blob: t.w.index == "skiplist"}); err != nil {
		rec.violations++
		rec.first = fmt.Errorf("CheckInvariants: %w", err)
	}
	_, rec.memBytes = t.store.MemoryInUse()
	h, err := t.newKV(99)
	if err != nil {
		return nil, err
	}
	perKey := uint64(7 + 8)
	if t.w.index == "skiplist" {
		perKey = 7 + valueLen
	}
	for k := 0; k < nKeys; k++ {
		tg, found, err := h.get(k)
		if err == nil {
			err = checkDurable(lasts, k, tg, found)
		}
		if err != nil {
			rec.violations++
			if rec.first == nil {
				rec.first = err
			}
		}
		if found {
			rec.liveBytes += perKey
		}
		rec.checked++
	}
	return rec, nil
}
