package overlay

import (
	"testing"

	"stopss/internal/message"
)

// BenchmarkWireCodec measures one pub frame through encode + decode
// with warmed per-link dictionaries — the steady-state per-hop
// serialization cost the overlay pays on every forwarded publication.
func BenchmarkWireCodec(b *testing.B) {
	ev := message.E("x", 42, "city", "Toronto", "score", 3.25)
	f := Frame{Type: framePub, Origin: "broker-a", PubID: "broker-a#e1/99",
		Event: &ev, Hops: []string{"broker-a", "broker-b"}}

	b.Run("binary", func(b *testing.B) {
		var w message.BWriter
		w.Dict = message.NewIntern()
		rdict := message.NewIntern()
		// Warm both dictionaries so the loop measures steady state.
		if err := appendFrameBinary(&w, f); err != nil {
			b.Fatal(err)
		}
		if _, err := decodeFrameBinary(w.Buf, rdict); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Reset()
			if err := appendFrameBinary(&w, f); err != nil {
				b.Fatal(err)
			}
			if _, err := decodeFrameBinary(w.Buf, rdict); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Ops gossip frames are low-rate (one per broker per refresh
	// interval), so this sub-benchmark guards against accidental bloat
	// of the summary payload rather than a hot path.
	ops := benchOpsFrame()

	b.Run("ops-binary", func(b *testing.B) {
		var w message.BWriter
		w.Dict = message.NewIntern()
		rdict := message.NewIntern()
		if err := appendFrameBinary(&w, ops); err != nil {
			b.Fatal(err)
		}
		if _, err := decodeFrameBinary(w.Buf, rdict); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Reset()
			if err := appendFrameBinary(&w, ops); err != nil {
				b.Fatal(err)
			}
			if _, err := decodeFrameBinary(w.Buf, rdict); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchOpsFrame builds a representative ops frame: a busy broker with
// two links, a deep journal and live caches.
func benchOpsFrame() Frame {
	return Frame{Type: frameOps, Origin: "broker-a", Hops: []string{"broker-a", "broker-b"},
		Ops: &OpsSummary{
			Origin: "broker-a", Epoch: "deadbeef", Seq: 12345,
			Links: []OpsLink{
				{Peer: "broker-b", Queue: 3, Inflight: 5, Sent: 99999, Recv: 88888},
				{Peer: "broker-c", Sent: 777, Recv: 555},
			},
			Subscriptions: 2048, Durable: 512, Detached: 64,
			Published: 1 << 20, Delivered: 1 << 19, Parked: 33, DeadLetters: 2,
			JournalHead: 1 << 20, JournalFloor: 4096, RetentionLost: 16,
			StoreResident: 448, StorePages: 1024,
			KBVersion: "a1b2c3d4", KBDeltas: 42,
			Goroutines: 87, HeapBytes: 64 << 20,
		}}
}
