package soap

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"unicode/utf8"

	"wsgossip/internal/wsa"
)

// Namespace is the SOAP 1.2 envelope namespace.
const Namespace = "http://www.w3.org/2003/05/soap-envelope"

// ContentType is the SOAP 1.2 media type used by the HTTP binding.
const ContentType = "application/soap+xml"

// ErrEmptyBody reports an attempt to decode a body with no child element.
var ErrEmptyBody = errors.New("soap: empty body")

// ErrHeaderNotFound reports a missing header block.
var ErrHeaderNotFound = errors.New("soap: header block not found")

// Envelope is a SOAP 1.2 message.
type Envelope struct {
	XMLName xml.Name `xml:"http://www.w3.org/2003/05/soap-envelope Envelope"`
	Header  *Header  `xml:"Header,omitempty"`
	Body    Body     `xml:"Body"`

	// addr caches the parsed WS-Addressing properties: one parse serves the
	// dispatcher, every middleware, and the handler of a delivery. Header
	// mutations (AddHeader, RemoveHeader, SetAddressing) invalidate it.
	addr atomic.Pointer[wsa.Headers]
}

// Header is the SOAP header: an ordered sequence of extension blocks.
type Header struct {
	XMLName xml.Name `xml:"http://www.w3.org/2003/05/soap-envelope Header"`
	Blocks  []Block  `xml:",any"`
}

// Body is the SOAP body. WS-Gossip messages carry exactly one child element.
type Body struct {
	XMLName xml.Name `xml:"http://www.w3.org/2003/05/soap-envelope Body"`
	Blocks  []Block  `xml:",any"`
}

// Block is one XML element captured verbatim, preserving attributes and
// children, so that header blocks a node does not understand pass through
// untouched (the paper's Consumer role depends on this).
type Block struct {
	XMLName xml.Name
	Raw     []byte
}

var (
	_ xml.Unmarshaler = (*Block)(nil)
	_ xml.Marshaler   = Block{}
)

// UnmarshalXML captures the complete element, including its start tag.
func (b *Block) UnmarshalXML(d *xml.Decoder, start xml.StartElement) error {
	b.XMLName = start.Name
	var buf bytes.Buffer
	enc := xml.NewEncoder(&buf)
	if err := enc.EncodeToken(start); err != nil {
		return fmt.Errorf("soap: capture block start: %w", err)
	}
	depth := 1
	for depth > 0 {
		tok, err := d.Token()
		if err != nil {
			return fmt.Errorf("soap: capture block token: %w", err)
		}
		switch tok.(type) {
		case xml.StartElement:
			depth++
		case xml.EndElement:
			depth--
		}
		if err := enc.EncodeToken(tok); err != nil {
			return fmt.Errorf("soap: re-encode block token: %w", err)
		}
	}
	if err := enc.Flush(); err != nil {
		return fmt.Errorf("soap: flush block: %w", err)
	}
	b.Raw = buf.Bytes()
	return nil
}

// MarshalXML replays the captured element verbatim.
func (b Block) MarshalXML(e *xml.Encoder, _ xml.StartElement) error {
	d := xml.NewDecoder(bytes.NewReader(b.Raw))
	for {
		tok, err := d.Token()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("soap: replay block: %w", err)
		}
		if err := e.EncodeToken(tok); err != nil {
			return fmt.Errorf("soap: emit block token: %w", err)
		}
	}
}

// Decode decodes v from the captured element.
func (b Block) Decode(v any) error {
	if err := xml.Unmarshal(b.Raw, v); err != nil {
		return fmt.Errorf("soap: decode block %s: %w", b.XMLName.Local, err)
	}
	return nil
}

// NewEnvelope returns an empty envelope.
func NewEnvelope() *Envelope {
	return &Envelope{}
}

// blockOf marshals v into a captured Block.
func blockOf(v any) (Block, error) {
	raw, err := xml.Marshal(v)
	if err != nil {
		return Block{}, fmt.Errorf("soap: marshal block: %w", err)
	}
	var probe struct {
		XMLName xml.Name
	}
	if err := xml.Unmarshal(raw, &probe); err != nil {
		return Block{}, fmt.Errorf("soap: probe block name: %w", err)
	}
	return Block{XMLName: probe.XMLName, Raw: raw}, nil
}

// AddHeader marshals v and appends it as a header block.
func (e *Envelope) AddHeader(v any) error {
	b, err := blockOf(v)
	if err != nil {
		return err
	}
	e.AddHeaderBlock(b)
	return nil
}

// AddHeaderBlock appends a pre-rendered header block. b.Raw must be one
// complete element named b.XMLName that declares its own default namespace;
// the typed header encoders build such blocks without encoding/xml.
func (e *Envelope) AddHeaderBlock(b Block) {
	if e.Header == nil {
		e.Header = &Header{}
	}
	e.Header.Blocks = append(e.Header.Blocks, b)
	e.addr.Store(nil)
}

// HeaderBlock returns the first header block with the given name.
func (e *Envelope) HeaderBlock(space, local string) (Block, bool) {
	if e.Header == nil {
		return Block{}, false
	}
	for _, b := range e.Header.Blocks {
		if b.XMLName.Local == local && (space == "" || b.XMLName.Space == space) {
			return b, true
		}
	}
	return Block{}, false
}

// DecodeHeader decodes the named header block into v.
func (e *Envelope) DecodeHeader(space, local string, v any) error {
	b, ok := e.HeaderBlock(space, local)
	if !ok {
		return fmt.Errorf("%w: {%s}%s", ErrHeaderNotFound, space, local)
	}
	return b.Decode(v)
}

// RemoveHeader deletes all header blocks with the given name and reports
// whether any were removed.
func (e *Envelope) RemoveHeader(space, local string) bool {
	return e.removeHeaders(space, func(l string) bool { return l == local })
}

// removeHeaders deletes, in one pass, every header block in space (any
// namespace when space is "") whose local name matches.
func (e *Envelope) removeHeaders(space string, match func(local string) bool) bool {
	if e.Header == nil {
		return false
	}
	kept := e.Header.Blocks[:0]
	removed := false
	for _, b := range e.Header.Blocks {
		if match(b.XMLName.Local) && (space == "" || b.XMLName.Space == space) {
			removed = true
			continue
		}
		kept = append(kept, b)
	}
	e.Header.Blocks = kept
	if removed {
		e.addr.Store(nil)
	}
	return removed
}

// SetBody replaces the body with the marshaled form of v.
func (e *Envelope) SetBody(v any) error {
	b, err := blockOf(v)
	if err != nil {
		return err
	}
	e.Body.Blocks = []Block{b}
	return nil
}

// BodyName returns the qualified name of the first body child, or a zero
// name for an empty body.
func (e *Envelope) BodyName() xml.Name {
	if len(e.Body.Blocks) == 0 {
		return xml.Name{}
	}
	return e.Body.Blocks[0].XMLName
}

// DecodeBody decodes the first body child into v.
func (e *Envelope) DecodeBody(v any) error {
	if len(e.Body.Blocks) == 0 {
		return ErrEmptyBody
	}
	return e.Body.Blocks[0].Decode(v)
}

// Encode serializes the envelope with an XML declaration. The fast path
// splices every captured Block.Raw verbatim into the canonical scaffold in
// one exactly-sized allocation (see wire.go); envelopes that resist
// splicing run through the original encoding/xml serializer.
func (e *Envelope) Encode() ([]byte, error) {
	if out, ok := encodeSplice(e); ok {
		countBytesOut(len(out))
		return out, nil
	}
	out, err := e.encodeLegacy()
	if err == nil {
		countBytesOut(len(out))
	}
	return out, err
}

// Decode parses a serialized envelope through a three-rung ladder. The
// hand-rolled scanner (scan.go) handles the canonical wire format with a
// single byte walk; documents it declines go to the encoding/xml zero-copy
// tokenizer; documents *that* cannot slice self-contained (namespace
// prefixes, blocks inheriting an outer default namespace) are re-parsed
// through the legacy encoding/xml path. On the first two rungs each block
// is a verbatim slice of data, which the envelope keeps alive and must not
// be modified afterwards.
func Decode(data []byte) (*Envelope, error) {
	if len(data) > maxEnvelopeBytes {
		countDecodeError(true)
		return nil, fmt.Errorf("soap: envelope of %d bytes exceeds the %d-byte cap", len(data), maxEnvelopeBytes)
	}
	if env, ok := decodeScan(data); ok {
		countDecode(rungScanner, len(data))
		return env, nil
	}
	if !bytes.Contains(data, wirePrefixDecl) {
		env, err := decodeZeroCopy(data)
		if err == nil {
			countDecode(rungZeroCopy, len(data))
			return env, nil
		}
		if !errors.Is(err, errNotSelfContained) {
			// Genuinely malformed input fails the same way on both paths;
			// keep the cheap error instead of parsing twice.
			countDecodeError(false)
			return nil, err
		}
	}
	env, err := decodeLegacy(data)
	if err == nil {
		countDecode(rungLegacy, len(data))
	} else {
		countDecodeError(false)
	}
	return env, err
}

// wirePrefixDecl gates the zero-copy path: documents declaring namespace
// prefixes can have block slices that depend on out-of-slice context.
var wirePrefixDecl = []byte("xmlns:")

// Clone deep-copies the envelope, including the captured block bytes.
// Fan-out paths use the cheaper Snapshot; Clone is for retention — an
// envelope that must outlive its delivery (and the transport's pooled
// receive buffer backing it) — and for callers that mutate Raw in place.
//
// A clone is compact, because stores hold many of them: every block's Raw
// is a sub-slice of one exactly-sized backing array, capacity-clipped so an
// append to one block reallocates instead of overwriting the next; the
// header and body lists share one []Block, also clipped; the envelope and
// its Header are one allocation. The addressing cache is not carried over
// (Addressing recomputes it on first use), so the clone retains nothing but
// the blocks.
func (e *Envelope) Clone() *Envelope {
	out, blocks := e.copyLists()
	size := 0
	for _, b := range blocks {
		size += len(b.Raw)
	}
	backing := make([]byte, 0, size)
	for i := range blocks {
		start := len(backing)
		backing = append(backing, blocks[i].Raw...)
		blocks[i].Raw = backing[start:len(backing):len(backing)]
	}
	return out
}

// Snapshot returns a copy-on-write clone: the header and body block lists
// are independent — adding, replacing, or removing blocks on one envelope
// never affects the other — while the captured Raw bytes are shared. Every
// mutation in this package replaces whole blocks and treats Raw as
// immutable, so the fan-out and store paths snapshot instead of
// deep-copying per target.
func (e *Envelope) Snapshot() *Envelope {
	out, _ := e.copyLists()
	out.addr.Store(e.addr.Load())
	return out
}

// copyLists returns a copy of e, without the addressing cache, whose header
// and body lists are capacity-clipped windows onto one fresh block array
// (also returned); Raw bytes are shared with e. The envelope and its Header
// are one allocation.
func (e *Envelope) copyLists() (*Envelope, []Block) {
	var header []Block
	if e.Header != nil {
		header = e.Header.Blocks
	}
	nh := len(header)
	blocks := make([]Block, nh+len(e.Body.Blocks))
	copy(blocks, header)
	copy(blocks[nh:], e.Body.Blocks)
	var out *Envelope
	if e.Header != nil {
		var h *Header
		out, h = newEnvelopePair()
		*h = Header{XMLName: e.Header.XMLName, Blocks: window(blocks, 0, nh)}
		out.Header = h
	} else {
		out = &Envelope{}
	}
	out.XMLName = e.XMLName
	out.Body = Body{XMLName: e.Body.XMLName, Blocks: window(blocks, nh, len(blocks))}
	return out, blocks
}

// window returns blocks[i:j] with its capacity clipped, or nil when empty.
func window(blocks []Block, i, j int) []Block {
	if i == j {
		return nil
	}
	return blocks[i:j:j]
}

// newEnvelopePair returns an empty envelope and a Header in one allocation;
// the caller links them (env.Header = h) if the envelope has a header.
func newEnvelopePair() (*Envelope, *Header) {
	pair := &struct {
		env Envelope
		hdr Header
	}{}
	return &pair.env, &pair.hdr
}

// Addressing-header element shapes. WS-Addressing properties are individual
// top-level header blocks: four carry only text, two an endpoint reference.
type (
	// textHeader is the encoding/xml shape of the text properties (To,
	// Action, MessageID, RelatesTo); the element name rides in XMLName.
	textHeader struct {
		XMLName xml.Name
		Value   string `xml:",chardata"`
	}
	replyToHeader struct {
		XMLName xml.Name `xml:"http://www.w3.org/2005/08/addressing ReplyTo"`
		Address string   `xml:"Address"`
	}
	fromHeader struct {
		XMLName xml.Name `xml:"http://www.w3.org/2005/08/addressing From"`
		Address string   `xml:"Address"`
	}
)

// isAddressingLocal reports whether local names a WS-Addressing property
// SetAddressing owns.
func isAddressingLocal(local string) bool {
	switch local {
	case "To", "Action", "MessageID", "RelatesTo", "ReplyTo", "From":
		return true
	}
	return false
}

// SetAddressing writes the WS-Addressing properties into the header,
// replacing any existing addressing blocks. The text properties go through
// the typed encoder (textBlock); values it declines, and the endpoint
// references, are marshalled by encoding/xml. Both produce the same bytes.
func (e *Envelope) SetAddressing(h wsa.Headers) error {
	e.removeHeaders(wsa.Namespace, isAddressingLocal)
	for _, p := range [...]struct{ local, value string }{
		{"To", h.To},
		{"Action", h.Action},
		{"MessageID", string(h.MessageID)},
		{"RelatesTo", string(h.RelatesTo)},
	} {
		if p.value == "" {
			continue
		}
		if b, ok := textBlock(wsa.Namespace, p.local, p.value); ok {
			e.AddHeaderBlock(b)
			continue
		}
		v := textHeader{XMLName: xml.Name{Space: wsa.Namespace, Local: p.local}, Value: p.value}
		if err := e.AddHeader(v); err != nil {
			return err
		}
	}
	if h.ReplyTo != nil {
		if err := e.AddHeader(replyToHeader{Address: h.ReplyTo.Address}); err != nil {
			return err
		}
	}
	if h.From != nil {
		if err := e.AddHeader(fromHeader{Address: h.From.Address}); err != nil {
			return err
		}
	}
	return nil
}

// textBlock renders <local xmlns="space">value</local> byte-identically to
// xml.Marshal of a textHeader with that name, which is what it replaces on
// the per-hop path. ok is false when space or value would need escaping
// (see PlainText); the caller then marshals through encoding/xml.
func textBlock(space, local, value string) (Block, bool) {
	if space == "" || !PlainText(space) || !PlainText(value) {
		return Block{}, false
	}
	raw := make([]byte, 0, len(`< xmlns=""></>`)+2*len(local)+len(space)+len(value))
	raw = append(raw, '<')
	raw = append(raw, local...)
	raw = append(raw, ` xmlns="`...)
	raw = append(raw, space...)
	raw = append(raw, `">`...)
	raw = append(raw, value...)
	raw = append(raw, "</"...)
	raw = append(raw, local...)
	raw = append(raw, '>')
	return Block{XMLName: xml.Name{Space: space, Local: local}, Raw: raw}, true
}

// PlainText reports whether encoding/xml writes s verbatim, as character
// data or as an attribute value: s is valid UTF-8 inside the XML character
// range and holds no byte that xml.EscapeText rewrites (the five markup
// characters, tab, newline, carriage return, other control characters).
// The typed header encoders copy plain strings straight into Raw and hand
// every other value to encoding/xml.
func PlainText(s string) bool {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c < 0x20 || c == '"' || c == '&' || c == '\'' || c == '<' || c == '>' {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 || !xmlCharOK(r) {
			return false
		}
		i += size
	}
	return true
}

// CachedAddressing returns the addressing properties if an earlier
// Addressing call cached them, without parsing anything. Readers that can
// reuse a cached string (the gossip header's MessageID) use it to avoid a
// second copy; they must not rely on the cache being present.
func (e *Envelope) CachedAddressing() (wsa.Headers, bool) {
	if h := e.addr.Load(); h != nil {
		return *h, true
	}
	return wsa.Headers{}, false
}

// Addressing extracts the WS-Addressing properties from the header. Missing
// blocks yield zero fields; callers validate what they require. The result
// is cached on the envelope (invalidated by header mutations), so the
// per-delivery dispatch chain pays for at most one parse.
func (e *Envelope) Addressing() wsa.Headers {
	if h := e.addr.Load(); h != nil {
		return *h
	}
	h := e.computeAddressing()
	e.addr.Store(&h)
	return h
}

// computeAddressing walks the header blocks once. The simple text
// properties (To, Action, MessageID, RelatesTo) are extracted directly from
// the captured block bytes; only blocks with element children (ReplyTo,
// From) or unusual content run through encoding/xml.
func (e *Envelope) computeAddressing() wsa.Headers {
	var h wsa.Headers
	if e.Header == nil {
		return h
	}
	const (
		fTo = 1 << iota
		fAction
		fMessageID
		fRelatesTo
		fReplyTo
		fFrom
	)
	var seen uint8
	for _, b := range e.Header.Blocks {
		if b.XMLName.Space != wsa.Namespace {
			continue
		}
		var bit uint8
		switch b.XMLName.Local {
		case "To":
			bit = fTo
		case "Action":
			bit = fAction
		case "MessageID":
			bit = fMessageID
		case "RelatesTo":
			bit = fRelatesTo
		case "ReplyTo":
			bit = fReplyTo
		case "From":
			bit = fFrom
		default:
			continue
		}
		// First block of each name wins, like the HeaderBlock lookup the
		// per-property decode used to run.
		if seen&bit != 0 {
			continue
		}
		seen |= bit
		switch bit {
		case fTo:
			h.To = blockText(b)
		case fAction:
			h.Action = blockText(b)
		case fMessageID:
			h.MessageID = wsa.MessageID(blockText(b))
		case fRelatesTo:
			h.RelatesTo = wsa.MessageID(blockText(b))
		case fReplyTo:
			var r replyToHeader
			if b.Decode(&r) == nil {
				epr := wsa.NewEPR(r.Address)
				h.ReplyTo = &epr
			}
		case fFrom:
			var f fromHeader
			if b.Decode(&f) == nil {
				epr := wsa.NewEPR(f.Address)
				h.From = &epr
			}
		}
	}
	return h
}

// blockText returns a text property's value: straight from the captured
// bytes when headerText can, else through encoding/xml ("" if the block
// does not decode).
func blockText(b Block) string {
	if v, ok := headerText(b.Raw); ok {
		return v
	}
	var t textHeader
	if b.Decode(&t) == nil {
		return t.Value
	}
	return ""
}

// headerText extracts the character content of a simple captured element —
// no child elements, comments, or CDATA — unescaping entity references and
// normalizing line endings exactly as encoding/xml chardata capture would.
// ok=false sends the block to the encoding/xml slow path.
func headerText(raw []byte) (string, bool) {
	// Skip the start tag, honouring quoted attribute values (which may
	// contain '>' and '/>').
	i := 1
	for i < len(raw) && raw[i] != '>' {
		if c := raw[i]; c == '"' || c == '\'' {
			i++
			for i < len(raw) && raw[i] != c {
				i++
			}
			if i >= len(raw) {
				return "", false
			}
		}
		i++
	}
	if i >= len(raw) {
		return "", false
	}
	if raw[i-1] == '/' {
		return "", true // self-closing: empty content
	}
	i++
	start := i
	for i < len(raw) && raw[i] != '<' {
		i++
	}
	if i+1 >= len(raw) || raw[i+1] != '/' {
		return "", false // child element, comment, or CDATA: slow path
	}
	return unescapeText(raw[start:i])
}

// unescapeText expands entity references and normalizes \r\n / \r to \n,
// mirroring encoding/xml's chardata handling. Unknown entities fall back.
func unescapeText(text []byte) (string, bool) {
	if bytes.IndexByte(text, '&') < 0 && bytes.IndexByte(text, '\r') < 0 {
		return string(text), true
	}
	out := make([]byte, 0, len(text))
	for i := 0; i < len(text); {
		switch c := text[i]; c {
		case '&':
			n, r := entityLen(text[i:])
			if n < 0 {
				return "", false
			}
			out = utf8.AppendRune(out, r)
			i += n
		case '\r':
			out = append(out, '\n')
			i++
			if i < len(text) && text[i] == '\n' {
				i++
			}
		default:
			out = append(out, c)
			i++
		}
	}
	return string(out), true
}
