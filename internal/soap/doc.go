// Package soap implements the SOAP 1.2 subset the WS-Gossip middleware is
// built on: envelope encoding/decoding, faults, a server-side handler chain
// (the interception point where the paper's gossip layer sits), an HTTP
// binding, and an in-memory binding (MemBus) for large in-process
// deployments.
//
// Key types:
//
//   - Envelope / Block — a decoded message: header and body blocks captured
//     verbatim as byte slices.
//   - Handler / Middleware / Dispatcher — the server-side stack. The
//     paper's Disseminator is exactly a Middleware: application code
//     unchanged, gossip layer interposed.
//   - Caller / EncodedSender — the client side; HTTPClient and MemBus
//     implement both.
//   - Fault — SOAP 1.2 faults, with NewFault/AsFault/FaultFrom helpers.
//
// The codec is the gossip hot path and avoids encoding/xml on the canonical
// format: a hand-rolled scanner slices blocks zero-copy out of the input
// buffer, Encode splices them into one exactly-sized allocation, and
// EncodeTemplate/RenderTo serialize a fan-out message once, patching only
// the wsa:To header per target (soap.Fanout is the shared fan-out ladder).
// Non-canonical documents transparently fall back to encoding/xml. The
// per-hop header blocks skip encoding/xml as well: SetAddressing renders the
// WS-Addressing text headers with a typed encoder that writes exactly
// xml.Marshal's bytes, and PlainText tells other packages' typed encoders
// (the gossip header in internal/core) which values they may copy verbatim;
// anything needing escaping falls back to xml.Marshal. See DESIGN.md, "The
// wire path", "The wire scanner" and "Typed header codecs".
//
// # Envelope ownership
//
// Receive and render buffers are pooled: the transport recycles a
// delivery's buffer once its handler returns. The contract (documented on
// Handler) is that a request envelope — including every Block.Raw — is
// valid only during HandleSOAP; a handler that retains it past that point
// must Clone it. Envelope.Snapshot shares the captured bytes and is NOT
// sufficient for retention; it exists for fan-out paths that re-head an
// envelope within a delivery.
//
// A Clone is compact because stores hold many of them: every Block.Raw is a
// capacity-clipped sub-slice of one exactly-sized backing array (an append
// to one block reallocates rather than overwrite the next), the header and
// body lists are clipped windows onto one []Block, the envelope and its
// Header share one allocation, and the addressing cache is not copied
// (Addressing recomputes it on first use). Snapshot and Decode build their
// block lists the same way, so growing a header list never touches the body.
package soap
