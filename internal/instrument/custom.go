package instrument

import (
	"sync"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/core/wire"
)

// Support for system-specific native communication methods (§VI
// "Support for specific JNI methods"): developers with their own native
// transport wrap it in a RawTransport and register it, and DisTA's
// Type 1 wrapper semantics apply unchanged.

// RawTransport is the minimal surface of a custom native send/receive
// pair: the analogue of a user's own JNI methods.
type RawTransport interface {
	// SendRaw transmits the whole buffer.
	SendRaw(b []byte) error
	// RecvRaw performs one read, returning the byte count; io.EOF at
	// end of stream.
	RecvRaw(b []byte) (int, error)
}

// CustomEndpoint applies the stream-oriented (Type 1) wrapper to a
// custom transport, exactly as Endpoint does for the standard socket
// natives: the same tier-selecting frame writer and the same liberal
// frame reader.
type CustomEndpoint struct {
	agent *tracker.Agent
	rt    RawTransport
	w     frameWriter
	r     frameReader
}

// WrapCustom instruments a custom transport for the given agent. The
// method pair should also be announced with RegisterCustomMethods so
// audits of the instrumentation surface (Table I listings) include it.
func WrapCustom(agent *tracker.Agent, rt RawTransport) *CustomEndpoint {
	return &CustomEndpoint{agent: agent, rt: rt}
}

// Write sends b with its taints through the custom native, on the tier
// the socket endpoint would pick. A custom transport may be
// message-oriented, so each frame is assembled contiguously and sent
// with one SendRaw rather than as a head and a body.
func (e *CustomEndpoint) Write(b taint.Bytes) error {
	return e.w.write(e.agent, b, e.rt.SendRaw, e.sendFrame)
}

// sendFrame joins a frame's head and body in a pooled buffer and sends
// it as one message.
func (e *CustomEndpoint) sendFrame(head, body []byte) error {
	if body == nil {
		return e.rt.SendRaw(head)
	}
	buf := wire.GetBuf(len(head) + len(body))
	out := append(append(*buf, head...), body...)
	err := e.rt.SendRaw(out)
	*buf = out
	wire.PutBuf(buf)
	return err
}

// Read fills buf with data and taints from the custom native.
func (e *CustomEndpoint) Read(buf *taint.Bytes) (int, error) {
	if len(buf.Data) == 0 {
		return 0, nil
	}
	if e.agent.Mode() != tracker.ModeDista {
		return e.rt.RecvRaw(buf.Data)
	}
	return e.r.read(e.agent, buf, e.rt.RecvRaw)
}

// customRegistry holds user-registered method rows.
var customRegistry struct {
	mu      sync.Mutex
	methods []Method
}

// RegisterCustomMethods announces user-instrumented native methods so
// they appear alongside the built-in Table I registry.
func RegisterCustomMethods(methods ...Method) {
	customRegistry.mu.Lock()
	defer customRegistry.mu.Unlock()
	customRegistry.methods = append(customRegistry.methods, methods...)
}

// ExtendedRegistry returns the built-in registry plus all registered
// custom methods.
func ExtendedRegistry() []Method {
	customRegistry.mu.Lock()
	defer customRegistry.mu.Unlock()
	out := make([]Method, 0, len(Registry)+len(customRegistry.methods))
	out = append(out, Registry...)
	out = append(out, customRegistry.methods...)
	return out
}
