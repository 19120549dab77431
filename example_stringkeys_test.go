package pmwcas_test

import (
	"fmt"

	"pmwcas"
)

// A currency-pair rate table keyed by short strings, using the
// order-preserving key codec over the persistent skip list — string
// range and prefix scans on an index that physically stores 8-byte words.
func Example_stringKeys() {
	store, err := pmwcas.Create(pmwcas.Config{Size: 16 << 20})
	if err != nil {
		panic(err)
	}
	list, err := store.SkipList()
	if err != nil {
		panic(err)
	}
	h := list.NewHandle(1)

	// Mid-market rates in basis points; keys are 6-byte pair symbols.
	rates := map[string]uint64{
		"EURUSD": 10871, "EURGBP": 8422, "EURJPY": 169230,
		"GBPUSD": 12905, "GBPJPY": 200950,
		"USDJPY": 155720, "USDCHF": 8901,
		"AUDUSD": 6655, "NZDUSD": 6012,
	}
	for sym, rate := range rates {
		if err := h.Insert(pmwcas.MustEncodeKey(sym), rate); err != nil {
			panic(fmt.Sprintf("insert %s: %v", sym, err))
		}
	}

	// Point lookup through the codec.
	rate, err := h.Get(pmwcas.MustEncodeKey("GBPUSD"))
	if err != nil {
		panic(err)
	}
	fmt.Printf("GBPUSD = %d.%04d\n", rate/10000, rate%10000)

	// Prefix scan: every EUR-quoted pair, in lexicographic order, from
	// one integer range scan.
	lo, hi, err := pmwcas.KeyPrefixRange([]byte("EUR"))
	if err != nil {
		panic(err)
	}
	fmt.Println("EUR pairs:")
	h.Scan(lo, hi, func(e pmwcas.SkipListEntry) bool {
		sym, err := pmwcas.DecodeKeyString(e.Key)
		if err != nil {
			panic(err)
		}
		fmt.Printf("  %s -> %d\n", sym, e.Value)
		return true
	})

	// Full table in reverse lexicographic order — the doubly-linked
	// list's party trick.
	fmt.Println("all pairs, reverse order:")
	h.ScanReverse(1, pmwcas.MaxSkipListKey, func(e pmwcas.SkipListEntry) bool {
		sym, _ := pmwcas.DecodeKeyString(e.Key)
		fmt.Printf("  %s\n", sym)
		return true
	})

	// Rates survive a power failure like any other key.
	if err := store.Crash(); err != nil {
		panic(err)
	}
	if _, err := store.Recover(); err != nil {
		panic(err)
	}
	list2, err := store.SkipList()
	if err != nil {
		panic(err)
	}
	v, err := list2.NewHandle(2).Get(pmwcas.MustEncodeKey("USDJPY"))
	fmt.Println("USDJPY after the power failure:", v, err)
	// Output:
	// GBPUSD = 1.2905
	// EUR pairs:
	//   EURGBP -> 8422
	//   EURJPY -> 169230
	//   EURUSD -> 10871
	// all pairs, reverse order:
	//   USDJPY
	//   USDCHF
	//   NZDUSD
	//   GBPUSD
	//   GBPJPY
	//   EURUSD
	//   EURJPY
	//   EURGBP
	//   AUDUSD
	// USDJPY after the power failure: 155720 <nil>
}
