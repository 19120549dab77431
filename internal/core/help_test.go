package core

import (
	"testing"

	"pmwcas/internal/nvram"
)

// These tests pin down the cooperative help paths that concurrent runs
// only hit probabilistically: a reader finding a stalled RDCSS install,
// a reader finding a stalled full descriptor, and helpers completing an
// operation whose owner never returns.

// plantStalledRDCSS manufactures the paper's §4.2 scenario: an installer
// thread that CASed its word-descriptor pointer into a target word and
// then went to sleep forever. It returns the descriptor offset and the
// address of the stalled word.
func plantStalledRDCSS(t *testing.T, e *env) (mdesc, addr0, addr1 nvram.Offset) {
	t.Helper()
	addrs := e.initWords(10, 20)
	h := e.pool.NewHandle()
	d, err := h.AllocateDescriptor(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddWord(addrs[0], 10, 11); err != nil {
		t.Fatal(err)
	}
	if err := d.AddWord(addrs[1], 20, 21); err != nil {
		t.Fatal(err)
	}
	// Reproduce Execute's pre-phase-1 persistence by hand, then install
	// the RDCSS pointer for word 0 exactly as install_mwcas_descriptor
	// would — and stop, as if the thread were preempted indefinitely.
	p := e.pool
	p.flushEntries(d.off, d.n)
	e.dev.Fence()
	e.dev.Store(d.off+descStatusOff, StatusUndecided)
	p.flushHeader(d.off)
	e.dev.Fence()
	wd := wordOff(d.off, 0)
	if !e.dev.CAS(addrs[0], 10, wd|RDCSSFlag) {
		t.Fatal("planting RDCSS pointer failed")
	}
	poisonOwnerCopy(d)
	return d.off, addrs[0], addrs[1]
}

// poisonOwnerCopy overwrites a stalled descriptor's DRAM copy of its
// entries with garbage values and policies. Whoever finishes the
// operation next — a helper or recovery — must work from the durable
// entries alone; one that read the owner's copy would roll 0xdead or
// 0xbeef into the real words.
func poisonOwnerCopy(d *Descriptor) {
	for i := range d.ents {
		d.ents[i].old, d.ents[i].new, d.ents[i].policy = 0xdead, 0xbeef, PolicyFreeOne
	}
}

// A reader that trips over a stalled RDCSS pointer must complete the
// install AND the whole operation before returning a plain value.
func TestReaderCompletesStalledRDCSS(t *testing.T) {
	e := newEnv(t, Persistent, false)
	_, addr0, addr1 := plantStalledRDCSS(t, e)

	reader := e.pool.NewHandle()
	v0 := reader.Read(addr0)
	v1 := reader.Read(addr1)
	if v0 != 11 || v1 != 21 {
		t.Fatalf("reader returned (%d, %d); the stalled operation was not helped to completion", v0, v1)
	}
	if s := e.pool.Stats(); s.Reads == 0 {
		t.Fatalf("help-through-read not counted: %+v", s)
	}
}

// A competing PMwCAS that trips over the stalled RDCSS must help it,
// then fail cleanly (its expected values are now stale).
func TestCompetitorCompletesStalledRDCSS(t *testing.T) {
	e := newEnv(t, Persistent, false)
	_, addr0, addr1 := plantStalledRDCSS(t, e)

	h := e.pool.NewHandle()
	d, err := h.AllocateDescriptor(0)
	if err != nil {
		t.Fatal(err)
	}
	d.AddWord(addr0, 10, 99) // stale: the helped operation installs 11
	d.AddWord(addr1, 20, 98)
	ok, err := d.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("competitor succeeded over a committed operation")
	}
	if got := h.Read(addr0); got != 11 {
		t.Fatalf("word 0 = %d, want the helped operation's 11", got)
	}
}

// A crash while the RDCSS pointer is planted: recovery must resolve it
// from the durable descriptor (the word-descriptor pointer form is
// explicitly handled in §4.4).
func TestRecoveryResolvesStalledRDCSS(t *testing.T) {
	e := newEnv(t, Persistent, false)
	mdesc, addr0, addr1 := plantStalledRDCSS(t, e)
	// Persist the planted pointer as an eviction could have.
	e.dev.Flush(addr0)

	// Restart by hand, handing the restarted slot the stalled owner's
	// poisoned copy: recovery must read the durable entries only.
	stale := e.pool
	e.dev.Crash()
	p, err := NewPool(Config{Device: e.dev, Region: e.poolReg,
		DescriptorCount: testDescs, WordsPerDescriptor: testWords, Mode: Persistent})
	if err != nil {
		t.Fatal(err)
	}
	idx := p.descIndex(mdesc)
	p.descs[idx].n = stale.descs[idx].n
	copy(p.descs[idx].ents, stale.descs[idx].ents)
	st, err := p.Recover()
	if err != nil {
		t.Fatal(err)
	}
	e.pool = p
	if st.RolledBack != 1 {
		t.Fatalf("recovery stats = %+v, want 1 rollback", st)
	}
	h := e.pool.NewHandle()
	if got := h.Read(addr0); got != 10 {
		t.Fatalf("word 0 = %d, want rolled-back 10", got)
	}
	if got := h.Read(addr1); got != 20 {
		t.Fatalf("word 1 = %d, want 20", got)
	}
}

// A reader that finds a full descriptor pointer (owner stalled between
// phases) must drive the operation to completion.
func TestReaderCompletesStalledDescriptor(t *testing.T) {
	e := newEnv(t, Persistent, false)
	addrs := e.initWords(5, 6)
	h := e.pool.NewHandle()
	d, _ := h.AllocateDescriptor(0)
	d.AddWord(addrs[0], 5, 50)
	d.AddWord(addrs[1], 6, 60)

	// Hand-run phase 1 completely, then stall before the status flip.
	p := e.pool
	p.flushEntries(d.off, d.n)
	e.dev.Fence()
	e.dev.Store(d.off+descStatusOff, StatusUndecided)
	p.flushHeader(d.off)
	e.dev.Fence()
	for i := 0; i < 2; i++ {
		if !e.dev.CAS(addrs[i], uint64(5+i), d.off|MwCASFlag|DirtyFlag) {
			t.Fatal("planting descriptor pointer failed")
		}
	}
	poisonOwnerCopy(d)

	reader := e.pool.NewHandle()
	if got := reader.Read(addrs[0]); got != 50 {
		t.Fatalf("Read = %d, want 50 (reader must finish the operation)", got)
	}
	if got := reader.Read(addrs[1]); got != 60 {
		t.Fatalf("Read = %d, want 60", got)
	}
	if p.readStatus(d.off) != StatusSucceeded {
		t.Fatalf("status = %s, want Succeeded", statusName(e.dev.Load(d.off+descStatusOff)))
	}
}

func TestPoolAccessors(t *testing.T) {
	e := newEnv(t, Persistent, false)
	p := e.pool
	if p.Device() != e.dev {
		t.Fatal("Device accessor")
	}
	if p.Mode() != Persistent {
		t.Fatal("Mode accessor")
	}
	if p.WordsPerDescriptor() != testWords {
		t.Fatal("WordsPerDescriptor accessor")
	}
	if p.Capacity() != testDescs {
		t.Fatal("Capacity accessor")
	}
	h := p.NewHandle()
	if h.Pool() != p {
		t.Fatal("Handle.Pool accessor")
	}
	if h.Guard() == nil || h.Guard().Manager() != p.Epochs() {
		t.Fatal("Handle.Guard accessor")
	}
	if p.Epochs().Epoch() == 0 {
		t.Fatal("epoch clock not running")
	}
	p.ReclaimPause() // must not panic with no garbage
	d, _ := h.AllocateDescriptor(0)
	if d.Offset() == 0 {
		t.Fatal("Descriptor.Offset")
	}
	d.Discard()
	if p.descIndex(p.descOff(3)) != 3 {
		t.Fatal("descIndex round trip")
	}
	if p.descIndex(1) != -1 || p.descIndex(p.descOff(0)+8) != -1 {
		t.Fatal("descIndex bounds")
	}
	for _, s := range []uint64{StatusFree, StatusUndecided, StatusSucceeded, StatusFailed, 99} {
		if statusName(s) == "" {
			t.Fatal("statusName")
		}
	}
	for _, pol := range []Policy{PolicyNone, PolicyFreeOne, PolicyFreeNewOnFailure, PolicyFreeOldOnSuccess, Policy(99)} {
		if pol.String() == "" {
			t.Fatal("Policy.String")
		}
	}
	if Volatile.String() != "Volatile" || Persistent.String() != "Persistent" {
		t.Fatal("Mode.String")
	}
}

func TestDescriptorViewAccessors(t *testing.T) {
	e := newEnv(t, Persistent, true)
	addrs := e.initWords(1)
	seen := make(chan DescriptorView, 1)
	e.pool.RegisterCallback(9, func(v DescriptorView, ok bool) {
		if v.WordCount() == 1 && v.Address(0) == addrs[0] &&
			v.Old(0) == 1 && v.New(0) == 2 && v.Policy(0) == PolicyNone &&
			v.Victim(0, ok) == 0 {
			select {
			case seen <- v:
			default:
			}
		}
	})
	h := e.pool.NewHandle()
	d, _ := h.AllocateDescriptor(9)
	d.AddWord(addrs[0], 1, 2)
	if ok, _ := d.Execute(); !ok {
		t.Fatal("Execute")
	}
	e.pool.Epochs().Advance()
	e.pool.Epochs().Collect()
	select {
	case v := <-seen:
		if err := v.FreeBlock(12345); err == nil {
			t.Fatal("FreeBlock accepted a bogus offset")
		}
	default:
		t.Fatal("callback never saw the expected view")
	}
}
