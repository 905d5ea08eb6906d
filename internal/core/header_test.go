package core

import (
	"bytes"
	"encoding/xml"
	"errors"
	"strings"
	"testing"

	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
)

// Differential tests for the typed gossip header codec: the encoder must
// write exactly xml.Marshal's bytes or decline, and the parser must agree
// with xml.Unmarshal on every block it accepts.

func canonicalGossip(iid, mid, hops, proto string) []byte {
	s := `<Gossip xmlns="urn:wsgossip:2008"><InteractionID>` + iid + `</InteractionID><MessageID>` + mid +
		`</MessageID><Hops>` + hops + `</Hops>`
	if proto != "" {
		s += `<Protocol>` + proto + `</Protocol>`
	}
	return []byte(s + `</Gossip>`)
}

// asciiPlain reports whether s is inside the parser's text subset.
func asciiPlain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || strings.IndexByte(`"&'<>`, c) >= 0 {
			return false
		}
	}
	return true
}

// checkGossipEncode asserts the encoder contract for gh.
func checkGossipEncode(t *testing.T, gh GossipHeader) {
	t.Helper()
	want, err := xml.Marshal(gh)
	if err != nil {
		t.Fatalf("xml.Marshal(%+v): %v", gh, err)
	}
	b, ok := gossipBlock(gh)
	plain := soap.PlainText(gh.InteractionID) && soap.PlainText(gh.MessageID) && soap.PlainText(gh.Protocol)
	if ok != plain {
		t.Fatalf("gossipBlock(%+v) ok=%v, want %v", gh, ok, plain)
	}
	if ok && (!bytes.Equal(b.Raw, want) || b.XMLName != gossipName) {
		t.Fatalf("typed encode %s (%v)\nxml.Marshal %s", b.Raw, b.XMLName, want)
	}
	env := soap.NewEnvelope()
	if err := SetGossipHeader(env, gh); err != nil {
		t.Fatal(err)
	}
	if got, _ := env.HeaderBlock(Namespace, "Gossip"); !bytes.Equal(got.Raw, want) {
		t.Fatalf("SetGossipHeader wrote %s, xml.Marshal %s", got.Raw, want)
	}
	if !ok {
		return
	}
	// Whatever the typed encoder writes in the parser's subset must come
	// back through the fast path.
	back, parsed := parseGossipHeader(b.Raw, "")
	hopsFit := gh.Hops > -1e9 && gh.Hops < 1e9
	if asciiPlain(gh.InteractionID) && asciiPlain(gh.MessageID) && asciiPlain(gh.Protocol) && hopsFit && !parsed {
		t.Fatalf("typed parse declined its own encoding %s", b.Raw)
	}
	if parsed {
		gh.XMLName = gossipName
		if back != gh {
			t.Fatalf("typed round trip %+v, want %+v", back, gh)
		}
	}
}

// checkGossipParse asserts the parser contract for an arbitrary block.
func checkGossipParse(t *testing.T, raw []byte, cachedID string) {
	t.Helper()
	var want GossipHeader
	wantErr := xml.Unmarshal(raw, &want)
	got, ok := parseGossipHeader(raw, cachedID)
	if ok {
		if wantErr != nil {
			t.Fatalf("typed parse accepted %q, xml.Unmarshal rejected it: %v", raw, wantErr)
		}
		if got != want {
			t.Fatalf("typed parse %+v, xml.Unmarshal %+v for %q", got, want, raw)
		}
	}
	// Through the public entry point the ladder must be indistinguishable
	// from xml.Unmarshal alone.
	env := soap.NewEnvelope()
	env.AddHeaderBlock(soap.Block{XMLName: gossipName, Raw: raw})
	gh, err := GossipHeaderFrom(env)
	if (err == nil) != (wantErr == nil) || errors.Is(err, ErrNoGossipHeader) {
		t.Fatalf("GossipHeaderFrom(%q) err=%v, xml.Unmarshal err=%v", raw, err, wantErr)
	}
	if err == nil && gh != want {
		t.Fatalf("GossipHeaderFrom %+v, xml.Unmarshal %+v for %q", gh, want, raw)
	}
}

func FuzzHeaderCodecEquivalence(f *testing.F) {
	fields := []struct {
		iid, mid string
		hops     int
		proto    string
	}{
		{"urn:uuid:i", "urn:uuid:m", 4, ""},
		{"urn:uuid:i", "urn:uuid:m", 0, ProtocolPullGossip},
		{"", "", -3, ""},
		{`a&b<c>d"e'f`, "tab\there", 1 << 40, "cr\rlf\n"},
		{"ctl\x01\x7f", "bad\xff\xfeutf8", -1 << 40, "é ✓ �"},
	}
	raws := []string{
		string(canonicalGossip("urn:i", "urn:m", "7", "")),
		string(canonicalGossip("urn:i", "urn:m", "7", ProtocolPushGossip)),
		string(canonicalGossip("", "", "0", "")),
		string(canonicalGossip("a&amp;b", "&#60;", "1", "")),
		string(canonicalGossip("a&bogus;", "m", "1", "")),
		string(canonicalGossip("i", "m", " 5 ", "")),
		string(canonicalGossip("i", "m", "\t5\n", "")),
		string(canonicalGossip("i", "m", "+5", "")),
		string(canonicalGossip("i", "m", "-5", "")),
		string(canonicalGossip("i", "m", "-0", "")),
		string(canonicalGossip("i", "m", "007", "")),
		string(canonicalGossip("i", "m", "", "")),
		string(canonicalGossip("i", "m", "-", "")),
		string(canonicalGossip("i", "m", "99999999999999999999", "")),
		string(canonicalGossip("i", "m", "2147483648", "")),
		string(canonicalGossip("i", "m", "1_000", "")),
		string(canonicalGossip("i\r\nj", "m\tn", "1", "")),
		string(canonicalGossip("ctl\x01", "m", "1", "")),
		string(canonicalGossip("bad\xffutf8", "m", "1", "")),
		string(canonicalGossip("x]]>y", "m", "1", "")),
		`<Gossip xmlns="urn:wsgossip:2008"><MessageID>m</MessageID><InteractionID>i</InteractionID><Hops>1</Hops></Gossip>`,
		`<Gossip xmlns="urn:wsgossip:2008"><InteractionID>i</InteractionID><MessageID>a</MessageID><MessageID>b</MessageID><Hops>1</Hops></Gossip>`,
		`<Gossip xmlns="urn:wsgossip:2008"><InteractionID>i</InteractionID><MessageID>m</MessageID><Hops>1</Hops><Extra>x</Extra></Gossip>`,
		`<Gossip xmlns="urn:wsgossip:2008"><InteractionID>i</InteractionID><!-- c --><MessageID>m</MessageID><Hops>1</Hops></Gossip>`,
		`<Gossip xmlns="urn:wsgossip:2008"><InteractionID><![CDATA[i<j]]></InteractionID><MessageID>m</MessageID><Hops>1</Hops></Gossip>`,
		`<Gossip xmlns="urn:wsgossip:2008" a="b"><InteractionID>i</InteractionID><MessageID>m</MessageID><Hops>1</Hops></Gossip>`,
		`<Gossip xmlns="urn:wsgossip:2008"><InteractionID x="y">i</InteractionID><MessageID>m</MessageID><Hops>1</Hops></Gossip>`,
		`<g:Gossip xmlns:g="urn:wsgossip:2008"><g:InteractionID>i</g:InteractionID><g:MessageID>m</g:MessageID><g:Hops>1</g:Hops></g:Gossip>`,
		`<Gossip xmlns="urn:other"><InteractionID>i</InteractionID><MessageID>m</MessageID><Hops>1</Hops></Gossip>`,
		`<Gossip xmlns="urn:wsgossip:2008"><InteractionID>i</InteractionID><MessageID>m</MessageID><Hops>1</Hops></Gossip>trailing`,
		`<Gossip xmlns="urn:wsgossip:2008"><InteractionID/><MessageID>m</MessageID><Hops>1</Hops></Gossip>`,
		`<Gossip xmlns="urn:wsgossip:2008"><InteractionID>i</InteractionID><MessageID>m</MessageID><Hops>1</Hops><Protocol></Protocol></Gossip>`,
		`<Gossip xmlns="urn:wsgossip:2008"><InteractionID>i</InteractionID><MessageID>m</MessageID><Hops>1</Hops>`,
		``,
	}
	for i, fl := range fields {
		f.Add(fl.iid, fl.mid, fl.hops, fl.proto, []byte(raws[i%len(raws)]), fl.mid)
	}
	for _, raw := range raws {
		f.Add("urn:uuid:i", "urn:uuid:m", 2, "", []byte(raw), "m")
	}
	f.Fuzz(func(t *testing.T, iid, mid string, hops int, proto string, raw []byte, cachedID string) {
		checkGossipEncode(t, GossipHeader{InteractionID: iid, MessageID: mid, Hops: hops, Protocol: proto})
		checkGossipParse(t, raw, cachedID)
		checkGossipParse(t, canonicalGossip(iid, mid, "3", proto), mid)
	})
}

// TestGossipHeaderFromReusesCachedMessageID pins the receive-side saving:
// once the dispatcher has cached the addressing, the parsed gossip header
// shares its MessageID string instead of copying it.
func TestGossipHeaderFromReusesCachedMessageID(t *testing.T) {
	env := soap.NewEnvelope()
	if err := env.SetAddressing(wsa.Headers{Action: ActionNotify, MessageID: "urn:uuid:shared"}); err != nil {
		t.Fatal(err)
	}
	if err := SetGossipHeader(env, GossipHeader{InteractionID: "urn:i", MessageID: "urn:uuid:shared", Hops: 2}); err != nil {
		t.Fatal(err)
	}
	data, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	recv, err := soap.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	cached := string(recv.Addressing().MessageID)
	gh, err := GossipHeaderFrom(recv)
	if err != nil {
		t.Fatal(err)
	}
	if gh.MessageID != cached || gh.Hops != 2 || gh.InteractionID != "urn:i" {
		t.Fatalf("header = %+v", gh)
	}
	if raceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = GossipHeaderFrom(recv) }); allocs > 1 {
		t.Fatalf("GossipHeaderFrom = %.1f allocs/op, want <= 1 (the InteractionID copy)", allocs)
	}
}
