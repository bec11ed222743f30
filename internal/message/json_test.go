package message

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
)

// jsonStrings exercise every escaping rule of encoding/json.
var jsonStrings = []string{
	"", "plain", `quote " and backslash \`, "<script>&amp;</script>",
	"\b\f\n\r\t", "\x00\x01\x1f\x7f", "café ∅ 日本", "\u2028 and \u2029",
	"bad \xff utf-8 \xc3", "\xed\xa0\x80 surrogate", "\U0001F600",
}

func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	check := func(s string) bool {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendJSONString([]byte("prefix"), s)
		if string(got) != "prefix"+string(want) {
			t.Errorf("AppendJSONString(%q) = %s, want %s", s, got[len("prefix"):], want)
			return false
		}
		return true
	}
	for _, s := range jsonStrings {
		check(s)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	bytesCheck := func(b []byte) bool { return check(string(b)) } // arbitrary, mostly invalid UTF-8
	if err := quick.Check(bytesCheck, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestValueAppendJSONMatchesWireValue checks the hand-written encoder
// against json.Marshal of the reflective wire struct decoding uses.
func TestValueAppendJSONMatchesWireValue(t *testing.T) {
	wire := func(v Value) wireValue {
		w := wireValue{Kind: v.kind.String()}
		switch v.kind {
		case KindString:
			w.Str = &v.str
		case KindInt:
			w.Int = &v.num
		case KindFloat:
			w.Float = &v.flt
		case KindBool:
			w.Bool = &v.b
		}
		return w
	}
	vals := []Value{None(), Value{kind: 99}, Int(0), Int(-7), Int(math.MaxInt64), Int(math.MinInt64),
		Bool(true), Bool(false), String(""), String("<Toronto & \u2028>")}
	for _, f := range []float64{0, math.Copysign(0, -1), 3, -2.5, 1e-7, 1e-6, 9.99e-7, 1e20, 1e21, -1e21,
		1.5e300, math.SmallestNonzeroFloat64, math.MaxFloat64, 123456789.125} {
		vals = append(vals, Float(f))
	}
	for _, v := range vals {
		want, err := json.Marshal(wire(v))
		if err != nil {
			t.Fatal(err)
		}
		got, err := v.MarshalJSON()
		if err != nil || string(got) != string(want) {
			t.Errorf("%#v: MarshalJSON = %s, %v; want %s", v, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if b, err := Float(f).MarshalJSON(); err == nil || b != nil {
			t.Errorf("Float(%v).MarshalJSON() = %s, %v; want an error", f, b, err)
		}
		ev := E("ok", 1, "bad", f)
		if b, err := ev.AppendJSON([]byte("keep")); err == nil || string(b) != "keep" {
			t.Errorf("event with %v: AppendJSON = %s, %v; want dst unchanged and an error", f, b, err)
		}
		if b, err := ev.MarshalJSON(); err == nil || b != nil {
			t.Errorf("event with %v: MarshalJSON = %s, %v; want an error", f, b, err)
		}
	}
}
