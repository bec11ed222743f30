package broker

import (
	"testing"

	"stopss/internal/message"
	"stopss/internal/notify"
	"stopss/internal/sublang"
)

// blockingTransport holds every Send until release is closed, and
// signals each Send it enters.
type blockingTransport struct {
	entered chan struct{}
	release chan struct{}
}

func (t *blockingTransport) Name() string { return "block" }

func (t *blockingTransport) Send(string, notify.Notification) error {
	t.entered <- struct{}{}
	<-t.release
	return nil
}

func (t *blockingTransport) Close() error { return nil }

// A notification still in flight when its subscription is removed must
// not bring the subscription's accounting block back: the block would
// never be freed again.
func TestUnsubscribeWithDeliveryInFlightFreesAccounting(t *testing.T) {
	tr := &blockingTransport{entered: make(chan struct{}, 1), release: make(chan struct{})}
	ne, err := notify.NewEngine(notify.Config{Workers: 1}, tr)
	if err != nil {
		t.Fatal(err)
	}
	b := New(jobsEngine(t), ne)
	if err := b.Register(Client{Name: "acme", Route: notify.Route{Transport: "block", Addr: "x"}}); err != nil {
		t.Fatal(err)
	}
	preds, err := sublang.ParseSubscription("(degree = PhD)")
	if err != nil {
		t.Fatal(err)
	}
	id, err := b.Subscribe("acme", preds)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := b.Publish(message.E("degree", "PhD")); err != nil || res.Notified != 1 {
		t.Fatalf("Publish = %+v, %v; want one notification", res, err)
	}
	<-tr.entered // the delivery is in flight
	if st := b.SubStats(); len(st) != 1 || st[0].ID != id || st[0].Matched != 1 {
		t.Fatalf("SubStats before unsubscribe = %+v, want subscription %d matched once", st, id)
	}
	if err := b.Unsubscribe("acme", id); err != nil {
		t.Fatal(err)
	}
	close(tr.release)
	if err := ne.Close(); err != nil { // waits for the delivery hook
		t.Fatal(err)
	}
	left := 0
	b.subStats.Range(func(any, any) bool { left++; return true })
	if left != 0 {
		t.Fatalf("%d accounting blocks left after unsubscribe", left)
	}
}
