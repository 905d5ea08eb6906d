package core

import (
	"encoding/xml"
	"strconv"

	"wsgossip/internal/soap"
)

// The gossip header codec. Every hop reads the header of each notification
// it receives (duplicates included) and re-renders it with one hop fewer on
// forward, so both directions skip encoding/xml for the canonical shape
// xml.Marshal produces:
//
//	<Gossip xmlns="urn:wsgossip:2008"><InteractionID>…</InteractionID>
//	<MessageID>…</MessageID><Hops>…</Hops>[<Protocol>…</Protocol>]</Gossip>
//
// (one line on the wire). The encoder writes exactly xml.Marshal's bytes or
// declines; the parser accepts only that shape with escape-free ASCII text
// and a plain decimal hop count, and agrees with xml.Unmarshal wherever it
// accepts. Everything else falls back to encoding/xml, so neither side can
// change what is sent or accepted. FuzzHeaderCodecEquivalence pins both.

const (
	gossipOpen       = `<Gossip xmlns="` + Namespace + `"><InteractionID>`
	gossipIIDClose   = `</InteractionID><MessageID>`
	gossipMIDClose   = `</MessageID><Hops>`
	gossipHopsEnd    = `</Hops>`
	gossipProtoOpen  = `<Protocol>`
	gossipProtoClose = `</Protocol>`
	gossipClose      = `</Gossip>`

	// maxHopDigits keeps a parsed hop count inside a 32-bit int without an
	// overflow check; longer counts take the encoding/xml path.
	maxHopDigits = 9
)

var gossipName = xml.Name{Space: Namespace, Local: "Gossip"}

// SetGossipHeader writes gh into the envelope, replacing any existing gossip
// header.
func SetGossipHeader(env *soap.Envelope, gh GossipHeader) error {
	env.RemoveHeader(Namespace, "Gossip")
	if b, ok := gossipBlock(gh); ok {
		env.AddHeaderBlock(b)
		return nil
	}
	return env.AddHeader(gh)
}

// GossipHeaderFrom extracts the gossip header, or ErrNoGossipHeader.
func GossipHeaderFrom(env *soap.Envelope) (GossipHeader, error) {
	b, ok := env.HeaderBlock(Namespace, "Gossip")
	if !ok {
		return GossipHeader{}, ErrNoGossipHeader
	}
	// The dispatcher has usually cached the addressing already; its
	// MessageID is the same string on every gossiped notification, so the
	// parse can share it instead of copying the bytes again.
	var cachedID string
	if a, ok := env.CachedAddressing(); ok {
		cachedID = string(a.MessageID)
	}
	if gh, ok := parseGossipHeader(b.Raw, cachedID); ok {
		return gh, nil
	}
	var gh GossipHeader
	if err := b.Decode(&gh); err != nil {
		return gh, err
	}
	return gh, nil
}

// gossipBlock renders gh byte-identically to xml.Marshal(gh), or reports
// false when a string field would need escaping.
func gossipBlock(gh GossipHeader) (soap.Block, bool) {
	if !soap.PlainText(gh.InteractionID) || !soap.PlainText(gh.MessageID) || !soap.PlainText(gh.Protocol) {
		return soap.Block{}, false
	}
	n := len(gossipOpen) + len(gh.InteractionID) + len(gossipIIDClose) + len(gh.MessageID) +
		len(gossipMIDClose) + 20 + len(gossipHopsEnd) + len(gossipClose) // 20: longest int64
	if gh.Protocol != "" {
		n += len(gossipProtoOpen) + len(gh.Protocol) + len(gossipProtoClose)
	}
	raw := make([]byte, 0, n)
	raw = append(raw, gossipOpen...)
	raw = append(raw, gh.InteractionID...)
	raw = append(raw, gossipIIDClose...)
	raw = append(raw, gh.MessageID...)
	raw = append(raw, gossipMIDClose...)
	raw = strconv.AppendInt(raw, int64(gh.Hops), 10)
	raw = append(raw, gossipHopsEnd...)
	if gh.Protocol != "" {
		raw = append(raw, gossipProtoOpen...)
		raw = append(raw, gh.Protocol...)
		raw = append(raw, gossipProtoClose...)
	}
	raw = append(raw, gossipClose...)
	return soap.Block{XMLName: gossipName, Raw: raw}, true
}

// parseGossipHeader reads a canonical gossip block. ok=false means raw
// strays from the canonical shape and must go through xml.Unmarshal; it
// never means raw is malformed. A MessageID equal to cachedID reuses that
// string.
func parseGossipHeader(raw []byte, cachedID string) (GossipHeader, bool) {
	var gh GossipHeader
	rest, ok := cutPrefix(raw, gossipOpen)
	if !ok {
		return gh, false
	}
	iid, rest, ok := cutText(rest, gossipIIDClose)
	if !ok {
		return gh, false
	}
	mid, rest, ok := cutText(rest, gossipMIDClose)
	if !ok {
		return gh, false
	}
	hops, rest, ok := cutText(rest, gossipHopsEnd)
	if !ok {
		return gh, false
	}
	if gh.Hops, ok = parseHops(hops); !ok {
		return gh, false
	}
	if after, isProto := cutPrefix(rest, gossipProtoOpen); isProto {
		var proto []byte
		if proto, rest, ok = cutText(after, gossipProtoClose); !ok {
			return gh, false
		}
		gh.Protocol = string(proto)
	}
	if string(rest) != gossipClose {
		return gh, false
	}
	gh.XMLName = gossipName
	gh.InteractionID = string(iid)
	if string(mid) == cachedID {
		gh.MessageID = cachedID
	} else {
		gh.MessageID = string(mid)
	}
	return gh, true
}

// cutText splits b at the first '<' into character data and what follows,
// which must start with the literal tag sequence. The text must read back
// verbatim under xml.Unmarshal: printable ASCII without '&' (no entity to
// expand) or '>' (no "]]>" to reject).
func cutText(b []byte, tags string) (text, rest []byte, ok bool) {
	i := 0
	for ; i < len(b); i++ {
		c := b[i]
		if c == '<' {
			break
		}
		if c < 0x20 || c >= 0x7f || c == '&' || c == '>' {
			return nil, nil, false
		}
	}
	rest, ok = cutPrefix(b[i:], tags)
	return b[:i], rest, ok
}

// cutPrefix is bytes.CutPrefix for a string prefix, without converting it.
func cutPrefix(b []byte, prefix string) ([]byte, bool) {
	if len(b) < len(prefix) || string(b[:len(prefix)]) != prefix {
		return b, false
	}
	return b[len(prefix):], true
}

// parseHops reads an optionally negative decimal hop count as xml.Unmarshal
// does, declining forms it would treat specially (empty, signs other than a
// leading '-', surrounding space, too many digits to skip an overflow check).
func parseHops(b []byte) (int, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 || len(b) > maxHopDigits {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}
