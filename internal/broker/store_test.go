package broker

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"stopss/internal/journal"
	"stopss/internal/message"
	"stopss/internal/notify"
	"stopss/internal/store"
	"stopss/internal/sublang"

	"time"
)

func attachTestStore(t *testing.T, b *Broker, dir string, pages int) *store.Store {
	t.Helper()
	st, err := store.Open(store.Config{Path: filepath.Join(dir, "subs.heap"), PageSize: 512, Pages: pages})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st
}

func TestDetachResumeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := newDurableRig(t, dir)
	attachTestStore(t, r.b, dir, 4)
	id := r.subscribeDurable(t, "acme", "(university = Toronto)")
	r.publish(t, "(school, Toronto)")
	waitCursor(t, r.b, id, 1)

	if err := r.b.DetachDurable("acme", id); err != nil {
		t.Fatal(err)
	}
	st := r.b.Stats()
	if st.Detached != 1 || st.Subscriptions != 0 || st.Durable != 0 {
		t.Fatalf("after detach: Detached=%d Subscriptions=%d Durable=%d", st.Detached, st.Subscriptions, st.Durable)
	}
	if r.b.Durable(id) {
		t.Fatal("detached subscription still reported durable/resident")
	}

	// Publications while detached are journaled but not delivered.
	before := r.tr.total()
	r.publish(t, "(school, Toronto)")
	if got := r.tr.total(); got != before {
		t.Fatalf("detached subscription still delivered: %d -> %d", before, got)
	}

	// Resume faults the record back in and replays the missed event.
	n, err := r.b.ResumeDurable("acme", id)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("resume redispatched %d, want 1", n)
	}
	waitCursor(t, r.b, id, 2)
	if r.tr.countSeq(2) == 0 {
		t.Fatal("missed event not redelivered on resume")
	}
	st = r.b.Stats()
	if st.Detached != 0 || st.Durable != 1 || st.FaultedIn != 1 {
		t.Fatalf("after resume: Detached=%d Durable=%d FaultedIn=%d", st.Detached, st.Durable, st.FaultedIn)
	}
}

func TestDetachRequiresOwnershipAndDurability(t *testing.T) {
	dir := t.TempDir()
	r := newDurableRig(t, dir)
	attachTestStore(t, r.b, dir, 4)
	id := r.subscribeDurable(t, "acme", "(university = Toronto)")
	if err := r.b.DetachDurable("mallory", id); err == nil {
		t.Fatal("detach by non-owner succeeded")
	}
	if err := r.b.Register(Client{Name: "beta", Route: notify.Route{Transport: "mem", Addr: "beta"}}); err != nil {
		t.Fatal(err)
	}
	preds, err := sublang.ParseSubscription("(degree = phd)")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := r.b.Subscribe("beta", preds)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.b.DetachDurable("beta", plain); err == nil {
		t.Fatal("detach of non-durable subscription succeeded")
	}
	if err := r.b.DetachDurable("acme", id); err != nil {
		t.Fatal(err)
	}
	// Resume by the wrong client is refused; the record stays stored.
	if _, err := r.b.ResumeDurable("mallory", id); err == nil {
		t.Fatal("resume by non-owner succeeded")
	}
	if r.b.Stats().Detached != 1 {
		t.Fatal("failed resume consumed the stored record")
	}
}

func TestUnsubscribeWhileDetached(t *testing.T) {
	dir := t.TempDir()
	r := newDurableRig(t, dir)
	attachTestStore(t, r.b, dir, 4)
	id := r.subscribeDurable(t, "acme", "(university = Toronto)")
	if err := r.b.DetachDurable("acme", id); err != nil {
		t.Fatal(err)
	}
	if err := r.b.Unsubscribe("acme", id); err != nil {
		t.Fatal(err)
	}
	if r.b.Stats().Detached != 0 {
		t.Fatal("unsubscribe left the stored record behind")
	}
	if _, err := r.b.ResumeDurable("acme", id); err == nil {
		t.Fatal("resume of an unsubscribed detached subscription succeeded")
	}
}

// TestDetachedFloorPinsJournal verifies the journal retains history a
// detached subscription still owes, even though its cursor left the
// journal's own table.
func TestDetachedFloorPinsJournal(t *testing.T) {
	dir := t.TempDir()
	tr := &memTransport{}
	nt, err := notify.NewEngine(notify.Config{Workers: 2, MaxRetries: 1, Backoff: time.Millisecond}, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer nt.Close()
	// Tiny segments so compaction gets plenty of roll opportunities.
	j, err := journal.Open(journal.Config{Dir: dir, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	b := New(jobsEngine(t), nt)
	b.AttachJournal(j)
	attachTestStore(t, b, dir, 4)

	if err := b.Register(Client{Name: "acme", Route: notify.Route{Transport: "mem", Addr: "acme"}}); err != nil {
		t.Fatal(err)
	}
	preds, err := sublang.ParseSubscription("(university = Toronto)")
	if err != nil {
		t.Fatal(err)
	}
	id, err := b.SubscribeDurable("acme", preds)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.DetachDurable("acme", id); err != nil {
		t.Fatal(err)
	}
	ev, err := sublang.ParseEvent("(school, Toronto)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := b.Publish(ev); err != nil {
			t.Fatal(err)
		}
	}
	// All 200 records must still be in the journal: the detached floor
	// pinned compaction at seq 0 despite the empty cursor table.
	recs := 0
	if err := j.Scan(1, func(journal.Record) error { recs++; return nil }); err != nil {
		t.Fatal(err)
	}
	if recs != 200 {
		t.Fatalf("journal retained %d records, want 200 (detached floor not pinning)", recs)
	}
	// Resume redelivers every one of them.
	n, err := b.ResumeDurable("acme", id)
	if err != nil {
		t.Fatal(err)
	}
	if n != 200 {
		t.Fatalf("resume redispatched %d, want 200", n)
	}
}

// reopenStoreBroker rebuilds a broker over the journal and store files
// a crashed broker left in dir, as a restart does.
func reopenStoreBroker(t *testing.T, dir string, pages int) (*Broker, *memTransport) {
	t.Helper()
	tr := &memTransport{}
	nt, err := notify.NewEngine(notify.Config{Workers: 2, MaxRetries: 1, Backoff: time.Millisecond}, tr)
	if err != nil {
		t.Fatal(err)
	}
	j, err := journal.Open(journal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Config{Path: filepath.Join(dir, "subs.heap"), PageSize: 512, Pages: pages})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		nt.Close()
		_ = j.Close()
		_ = st.Close()
	})
	b := New(jobsEngine(t), nt)
	b.AttachJournal(j)
	if err := b.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	return b, tr
}

// TestStoreRestartResume is the crash-restart path: detach, checkpoint,
// "crash" (no close), rebuild broker+journal+store, resume — the
// subscription and its missed events come back.
func TestStoreRestartResume(t *testing.T) {
	dir := t.TempDir()
	storePath := filepath.Join(dir, "subs.heap")
	r := newDurableRig(t, dir)
	st, err := store.Open(store.Config{Path: storePath, PageSize: 512, Pages: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.b.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	id := r.subscribeDurable(t, "acme", "(university = Toronto)")
	r.publish(t, "(school, Toronto)")
	waitCursor(t, r.b, id, 1)
	if err := r.b.DetachDurable("acme", id); err != nil {
		t.Fatal(err)
	}
	r.publish(t, "(school, Toronto)")
	if err := r.b.CheckpointStore(); err != nil {
		t.Fatal(err)
	}
	if err := r.j.Close(); err != nil { // flush the journal; store file is checkpointed
		t.Fatal(err)
	}
	// No store.Close(): simulate a crash. Reopen everything.
	b2, tr2 := reopenStoreBroker(t, dir, 4)
	if got := b2.Stats().Detached; got != 1 {
		t.Fatalf("reopened store has %d detached records, want 1", got)
	}
	if err := b2.Register(Client{Name: "acme", Route: notify.Route{Transport: "mem", Addr: "acme"}}); err != nil {
		t.Fatal(err)
	}
	n, err := b2.ResumeDurable("acme", id)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("post-restart resume redispatched %d, want 1", n)
	}
	waitCursor(t, b2, id, 2)
	if tr2.countSeq(2) == 0 {
		t.Fatal("missed event not redelivered after restart")
	}
	// New subscriptions never collide with the detached ID space.
	if err := b2.Register(Client{Name: "beta"}); err != nil {
		t.Fatal(err)
	}
	preds, err := sublang.ParseSubscription("(degree = phd)")
	if err != nil {
		t.Fatal(err)
	}
	nid, err := b2.Subscribe("beta", preds)
	if err != nil {
		t.Fatal(err)
	}
	if nid <= id {
		t.Fatalf("new subscription ID %d collides with detached space (max detached %d)", nid, id)
	}
}

// TestSnapshotRestoreMergesStoreCursor: a subscription snapshotted
// while resident, then detached with a further-along cursor, must
// restore with the store's (newer) cursor — the 3-way max.
func TestSnapshotRestoreMergesStoreCursor(t *testing.T) {
	dir := t.TempDir()
	r := newDurableRig(t, dir)
	attachTestStore(t, r.b, dir, 4)
	id := r.subscribeDurable(t, "acme", "(university = Toronto)")

	var snap bytes.Buffer
	if err := r.b.Snapshot(&snap); err != nil { // cursor 0 in the snapshot
		t.Fatal(err)
	}
	r.publish(t, "(school, Toronto)")
	waitCursor(t, r.b, id, 1)
	if err := r.b.DetachDurable("acme", id); err != nil { // store cursor 1
		t.Fatal(err)
	}

	// Fresh broker over the same journal+store, restored from the stale
	// snapshot.
	tr2 := &memTransport{}
	nt2, err := notify.NewEngine(notify.Config{Workers: 2, MaxRetries: 1, Backoff: time.Millisecond}, tr2)
	if err != nil {
		t.Fatal(err)
	}
	defer nt2.Close()
	b2 := New(jobsEngine(t), nt2)
	b2.AttachJournal(r.j)
	if err := b2.AttachStore(r.b.Store()); err != nil {
		t.Fatal(err)
	}
	if err := b2.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	cur, ok := b2.DurableCursor(id)
	if !ok || cur != 1 {
		t.Fatalf("restored cursor = %d/%v, want 1 (store's copy)", cur, ok)
	}
	if b2.Stats().Detached != 0 {
		t.Fatal("store record not absorbed by restore")
	}
}

// TestManyDetachedBoundedResidency pages thousands of durable subs out
// and verifies the broker's resident footprint is the store's page
// budget, not the subscription count, before and after a crash-restart.
func TestManyDetachedBoundedResidency(t *testing.T) {
	dir := t.TempDir()
	r := newDurableRig(t, dir)
	// Not attachTestStore: the crash below abandons this store unclosed.
	st, err := store.Open(store.Config{Path: filepath.Join(dir, "subs.heap"), PageSize: 512, Pages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.b.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	if err := r.b.Register(Client{Name: "acme", Route: notify.Route{Transport: "mem", Addr: "acme"}}); err != nil {
		t.Fatal(err)
	}
	checkResidency := func(b *Broker, when string) {
		t.Helper()
		if s := b.Stats().Store; s.Resident > s.PoolCapacity {
			t.Fatalf("%s: store resident %d exceeds pool budget %d", when, s.Resident, s.PoolCapacity)
		}
	}
	const n = 2000
	for i := 0; i < n; i++ {
		preds, err := sublang.ParseSubscription(fmt.Sprintf("(university = City%d)", i%97))
		if err != nil {
			t.Fatal(err)
		}
		id, err := r.b.SubscribeDurable("acme", preds)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.b.DetachDurable("acme", id); err != nil {
			t.Fatal(err)
		}
	}
	st0 := r.b.Stats()
	if st0.Detached != n {
		t.Fatalf("Detached = %d, want %d", st0.Detached, n)
	}
	if st0.Subscriptions != 0 || st0.Durable != 0 {
		t.Fatalf("resident maps not empty: subs=%d durable=%d", st0.Subscriptions, st0.Durable)
	}
	checkResidency(r.b, "after churn")
	if st0.Store.Evictions == 0 || st0.Store.WriteBacks == 0 {
		t.Fatalf("no evictions or write-backs despite records >> pool budget: %+v", st0.Store)
	}
	// Spot-check a few resumes still work under heavy eviction.
	resumed := []message.SubID{1, n / 2, n}
	for _, id := range resumed {
		if _, err := r.b.ResumeDurable("acme", id); err != nil {
			t.Fatalf("resume of sub %d: %v", id, err)
		}
	}
	checkResidency(r.b, "after resumes")

	// Crash-restart: checkpoint, abandon the stack, rebuild from disk.
	if err := r.b.CheckpointStore(); err != nil {
		t.Fatal(err)
	}
	if err := r.j.Close(); err != nil {
		t.Fatal(err)
	}
	b2, _ := reopenStoreBroker(t, dir, 8)
	if got, want := b2.Stats().Detached, n-len(resumed); got != want {
		t.Fatalf("after restart: %d detached records, want %d", got, want)
	}
	checkResidency(b2, "after reopen")
	if err := b2.Register(Client{Name: "acme", Route: notify.Route{Transport: "mem", Addr: "acme"}}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []message.SubID{2, n / 4, n - 1} {
		if _, err := b2.ResumeDurable("acme", id); err != nil {
			t.Fatalf("post-restart resume of sub %d: %v", id, err)
		}
	}
	checkResidency(b2, "after post-restart resumes")
}
