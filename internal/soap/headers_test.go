package soap

import (
	"bytes"
	"encoding/xml"
	"testing"

	"wsgossip/internal/wsa"
)

// Tests for the typed WS-Addressing header encoder and the compact Clone.

// The element shapes SetAddressing marshalled before the typed encoder; the
// typed path and its encoding/xml fallback must both reproduce them.
type (
	legacyTo struct {
		XMLName xml.Name `xml:"http://www.w3.org/2005/08/addressing To"`
		Value   string   `xml:",chardata"`
	}
	legacyAction struct {
		XMLName xml.Name `xml:"http://www.w3.org/2005/08/addressing Action"`
		Value   string   `xml:",chardata"`
	}
	legacyMessageID struct {
		XMLName xml.Name `xml:"http://www.w3.org/2005/08/addressing MessageID"`
		Value   string   `xml:",chardata"`
	}
	legacyRelatesTo struct {
		XMLName xml.Name `xml:"http://www.w3.org/2005/08/addressing RelatesTo"`
		Value   string   `xml:",chardata"`
	}
)

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := xml.Marshal(v)
	if err != nil {
		t.Fatalf("xml.Marshal(%+v): %v", v, err)
	}
	return raw
}

// checkTextCodec asserts the typed encoder contract for one value: PlainText
// holds exactly when encoding/xml writes the value verbatim, textBlock
// accepts exactly the plain values and then writes xml.Marshal's bytes, and
// SetAddressing writes the legacy bytes either way.
func checkTextCodec(t *testing.T, space, value string) {
	t.Helper()
	var esc bytes.Buffer
	_ = xml.EscapeText(&esc, []byte(value))
	if plain := PlainText(value); plain != (esc.String() == value) {
		t.Fatalf("PlainText(%q) = %v, but xml.EscapeText gives %q", value, plain, esc.String())
	}
	for _, local := range []string{"To", "Action", "MessageID", "RelatesTo"} {
		want := mustMarshal(t, textHeader{XMLName: xml.Name{Space: space, Local: local}, Value: value})
		b, ok := textBlock(space, local, value)
		if ok != (space != "" && PlainText(space) && PlainText(value)) {
			t.Fatalf("textBlock(%q, %s, %q) ok=%v", space, local, value, ok)
		}
		if ok && (!bytes.Equal(b.Raw, want) || b.XMLName != (xml.Name{Space: space, Local: local})) {
			t.Fatalf("typed %s (%v)\nxml.Marshal %s", b.Raw, b.XMLName, want)
		}
	}
	if value == "" {
		return
	}
	env := NewEnvelope()
	if err := env.SetAddressing(wsa.Headers{
		To: value, Action: value, MessageID: wsa.MessageID(value), RelatesTo: wsa.MessageID(value),
	}); err != nil {
		t.Fatal(err)
	}
	want := [][]byte{
		mustMarshal(t, legacyTo{Value: value}),
		mustMarshal(t, legacyAction{Value: value}),
		mustMarshal(t, legacyMessageID{Value: value}),
		mustMarshal(t, legacyRelatesTo{Value: value}),
	}
	if len(env.Header.Blocks) != len(want) {
		t.Fatalf("SetAddressing wrote %d blocks", len(env.Header.Blocks))
	}
	for i, b := range env.Header.Blocks {
		if !bytes.Equal(b.Raw, want[i]) {
			t.Fatalf("SetAddressing block %d = %s, legacy %s", i, b.Raw, want[i])
		}
	}
}

func FuzzHeaderCodecEquivalence(f *testing.F) {
	for _, v := range []string{
		"mem://peer1", "urn:uuid:0f0e", "http://host:8080/svc?a=1", "",
		`&`, `<`, `>`, `"`, `'`, "\t", "\r", "\n", "a\r\nb",
		"\x00", "\x01", "\x1f", "\x7f", "\xff", "\xc3", "\xed\xa0\x80", "\xef\xbf\xbe",
		"é ✓ 日本語", "�", "\U0010FFFF", " lead", "trail ",
	} {
		f.Add(wsa.Namespace, v)
	}
	f.Add("", "v")
	f.Add("urn:a&b", "v")
	f.Add("urn:a\nb", "v")
	f.Fuzz(checkTextCodec)
}

func cloneSource(t *testing.T) *Envelope {
	t.Helper()
	env := NewEnvelope()
	if err := env.SetAddressing(wsa.Headers{Action: "urn:op", MessageID: "urn:uuid:c"}); err != nil {
		t.Fatal(err)
	}
	if err := env.AddHeader(testHeader{Tag: "meta"}); err != nil {
		t.Fatal(err)
	}
	if err := env.SetBody(testBody{Value: "payload"}); err != nil {
		t.Fatal(err)
	}
	// Decode so every Raw aliases one receive buffer, as on a real hop.
	data, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	recv, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return recv
}

func TestCloneIndependentOfSourceBytes(t *testing.T) {
	src := cloneSource(t)
	cp := src.Clone()
	want, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range append(src.Header.Blocks, src.Body.Blocks...) {
		for i := range b.Raw {
			b.Raw[i] = 'X'
		}
	}
	got, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("source mutation showed through the clone:\n%s\nwant\n%s", got, want)
	}
}

func TestCloneBlocksCapacityClipped(t *testing.T) {
	src := cloneSource(t)
	cp := src.Clone()
	want, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	blocks := append(append([]Block(nil), cp.Header.Blocks...), cp.Body.Blocks...)
	for i, b := range blocks {
		if cap(b.Raw) != len(b.Raw) {
			t.Fatalf("block %d: cap %d != len %d", i, cap(b.Raw), len(b.Raw))
		}
		_ = append(b.Raw, "OVERWRITE"...)
	}
	if got, err := cp.Encode(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("append to one block overwrote its neighbour (err %v):\n%s", err, got)
	}
	// Header and body share one []Block: growing the header list must not
	// overwrite the first body block.
	if cap(cp.Header.Blocks) != len(cp.Header.Blocks) {
		t.Fatalf("header block list cap %d != len %d", cap(cp.Header.Blocks), len(cp.Header.Blocks))
	}
	cp.AddHeaderBlock(Block{XMLName: xml.Name{Space: "urn:x", Local: "X"}, Raw: []byte(`<X xmlns="urn:x"></X>`)})
	if cp.BodyName() != src.BodyName() {
		t.Fatalf("header append clobbered the body: %v", cp.BodyName())
	}
}

func TestCloneAddressingMatchesSource(t *testing.T) {
	src := cloneSource(t)
	want := src.Addressing() // cached on the source
	cp := src.Clone()
	if _, cached := cp.CachedAddressing(); cached {
		t.Fatal("clone carried the addressing cache")
	}
	if got := cp.Addressing(); got != want {
		t.Fatalf("clone addressing %+v, source %+v", got, want)
	}
	bare := NewEnvelope()
	if err := bare.SetBody(testBody{Value: "headerless"}); err != nil {
		t.Fatal(err)
	}
	if c := bare.Clone(); c.Header != nil || c.BodyName() != bare.BodyName() {
		t.Fatalf("headerless clone = %+v", c)
	}
}

func TestInternerSharesCompactClone(t *testing.T) {
	in := NewInterner(4)
	src := cloneSource(t)
	a := in.Clone("k", src)
	if b := in.Clone("k", src); a != b {
		t.Fatal("interner returned two clones for one key")
	}
	want, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	src.Body.Blocks[0].Raw[1] = 'Z'
	if got, err := a.Encode(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("interned clone shares bytes with its source (err %v)", err)
	}
}

// TestDecodedBlockListsIndependent: the scanner carves the Header and Body
// lists from one block array; growing one list must never write into the
// other.
func TestDecodedBlockListsIndependent(t *testing.T) {
	env := cloneSource(t)
	if _, ok := decodeScan(mustEncode(t, env)); !ok {
		t.Fatal("canonical envelope rejected by the scanner")
	}
	if cap(env.Header.Blocks) != len(env.Header.Blocks) {
		t.Fatalf("header list cap %d != len %d", cap(env.Header.Blocks), len(env.Header.Blocks))
	}
	body := env.BodyName()
	for i := 0; i < 4; i++ {
		env.AddHeaderBlock(Block{XMLName: xml.Name{Space: "urn:x", Local: "X"}, Raw: []byte(`<X xmlns="urn:x"></X>`)})
	}
	if env.BodyName() != body || len(env.Body.Blocks) != 1 {
		t.Fatalf("header growth clobbered the body: %+v", env.Body)
	}
}

func mustEncode(t *testing.T, env *Envelope) []byte {
	t.Helper()
	data, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPoolRecyclesUnevenSizes: a rendered message is rarely a power of two
// long. A buffer handed out for such a size must return to the class the
// same size draws from, or every render allocates afresh.
func TestPoolRecyclesUnevenSizes(t *testing.T) {
	for _, n := range []int{600, 1300, 5000} {
		hit := false
		for i := 0; i < 100 && !hit; i++ {
			b := getBytes(n)
			b = append(b, make([]byte, n)...)
			first := &b[0]
			putBytes(b)
			again := getBytes(n)
			hit = cap(again) >= n && &again[:1][0] == first
		}
		if !hit {
			t.Errorf("getBytes(%d) never got back the buffer it handed out", n)
		}
	}
}
