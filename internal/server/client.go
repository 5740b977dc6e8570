package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"admission/internal/lca"
	"admission/internal/problem"
	"admission/internal/wire"
)

// Client is the generic HTTP client for one workload of a Server, used by
// RunLoad, cmd/acload, the served experiments and the bench module. It
// batches items into one POST /v1/<workload> and decodes the streamed
// decisions, NDJSON or (built by NewWireClient) binary frames. Req is the
// workload's request wire type and Dec its decision line type
// (problem.Request/DecisionJSON for admission, int/CoverDecisionJSON for
// cover).
//
// Concurrency contract: a Client is safe for concurrent use; the
// underlying http.Client pools connections per host.
type Client[Req any, Dec any] struct {
	base     string
	workload string
	hc       *http.Client
	wire     *ClientWire[Req, Dec]
}

// ClientWire is the pair of hooks that switches a Client onto the binary
// wire protocol: requests are appended as canonical frames into a pooled
// buffer and decisions decoded straight out of framed response payloads —
// one framed write and one framed streaming read per batch, over the
// transport's persistent connections.
type ClientWire[Req any, Dec any] struct {
	// AppendRequest appends one item as a tagged, length-prefixed frame.
	AppendRequest func(buf []byte, req Req) []byte
	// DecodeDecision decodes one response frame payload (which may carry
	// the workload's decision tag or wire.TagStreamError) into the
	// workload's decision line type.
	DecodeDecision func(payload []byte) (Dec, error)
}

// streamError reports whether payload is a whole-batch
// wire.TagStreamError frame and, if it is, decodes its message.
func streamError(payload []byte) (msg string, ok bool, err error) {
	tag, err := wire.Tag(payload)
	if err != nil || tag != wire.TagStreamError {
		return "", false, err
	}
	msg, err = wire.DecodeStreamError(payload)
	return msg, true, err
}

// NewClient creates a client for the named workload of the server at
// baseURL (e.g. "http://127.0.0.1:8080"). maxConns bounds the connection
// pool (0 means the stdlib default of 2 idle connections per host).
func NewClient[Req any, Dec any](baseURL, workload string, maxConns int) *Client[Req, Dec] {
	tr := &http.Transport{}
	if maxConns > 0 {
		tr.MaxIdleConnsPerHost = maxConns
		tr.MaxConnsPerHost = 0 // unbounded actives; idle pool sized above
	}
	return &Client[Req, Dec]{
		base:     strings.TrimRight(baseURL, "/"),
		workload: workload,
		hc:       &http.Client{Transport: tr},
	}
}

// NewWireClient creates a client that speaks the binary wire protocol for
// the named workload. It shares everything with NewClient except the
// submission codec: Submit posts framed binary bodies and reads framed
// binary decision streams.
func NewWireClient[Req any, Dec any](baseURL, workload string, maxConns int, cw ClientWire[Req, Dec]) *Client[Req, Dec] {
	c := NewClient[Req, Dec](baseURL, workload, maxConns)
	c.wire = &cw
	return c
}

// NewAdmissionClient creates a client for the built-in admission workload.
func NewAdmissionClient(baseURL string, maxConns int) *Client[problem.Request, DecisionJSON] {
	return NewClient[problem.Request, DecisionJSON](baseURL, WorkloadAdmission, maxConns)
}

// NewCoverClient creates a client for the built-in set cover workload.
func NewCoverClient(baseURL string, maxConns int) *Client[int, CoverDecisionJSON] {
	return NewClient[int, CoverDecisionJSON](baseURL, WorkloadCover, maxConns)
}

// NewQueryClient creates a client for the built-in local-computation query
// workload.
func NewQueryClient(baseURL string, maxConns int) *Client[lca.Query, QueryDecisionJSON] {
	return NewClient[lca.Query, QueryDecisionJSON](baseURL, WorkloadQuery, maxConns)
}

// NewQueryWireClient creates a binary-protocol client for the built-in
// local-computation query workload, decision-identical to NewQueryClient.
func NewQueryWireClient(baseURL string, maxConns int) *Client[lca.Query, QueryDecisionJSON] {
	return NewWireClient(baseURL, WorkloadQuery, maxConns, QueryClientWire())
}

// NewAdmissionWireClient creates a binary-protocol client for the built-in
// admission workload, decision-identical to NewAdmissionClient.
func NewAdmissionWireClient(baseURL string, maxConns int) *Client[problem.Request, DecisionJSON] {
	return NewWireClient(baseURL, WorkloadAdmission, maxConns, AdmissionClientWire())
}

// NewCoverWireClient creates a binary-protocol client for the built-in set
// cover workload, decision-identical to NewCoverClient.
func NewCoverWireClient(baseURL string, maxConns int) *Client[int, CoverDecisionJSON] {
	return NewWireClient(baseURL, WorkloadCover, maxConns, CoverClientWire())
}

// Submit posts a batch of items and returns one decision line per item, in
// item order. A status other than 200 or a transport failure is returned
// as an error; per-item failures arrive in the corresponding decision line.
//
// Cancellation is wired through the whole exchange including the NDJSON
// read loop: when ctx is done the streaming response body is closed, so a
// Submit blocked on a hung stream returns promptly with the context's
// error — it does not wait for the server to finish or the connection to
// time out.
func (c *Client[Req, Dec]) Submit(ctx context.Context, items []Req) ([]Dec, error) {
	if c.wire != nil {
		return c.submitWire(ctx, items)
	}
	body, err := json.Marshal(items)
	if err != nil {
		return nil, err
	}
	resp, err := c.post(ctx, "application/json", body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// Tie the streaming read loop to ctx explicitly: closing the body
	// unblocks a Scan stuck on a stalled stream the moment ctx fires,
	// independent of transport internals.
	stop := context.AfterFunc(ctx, func() { resp.Body.Close() })
	defer stop()

	out := make([]Dec, 0, len(items))
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var d Dec
		if err := json.Unmarshal(line, &d); err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return out, cerr
			}
			return out, fmt.Errorf("decoding decision line %d: %v", len(out), err)
		}
		out = append(out, d)
	}
	if err := sc.Err(); err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return out, cerr
		}
		return out, err
	}
	if cerr := ctx.Err(); cerr != nil && len(out) != len(items) {
		return out, cerr
	}
	if len(out) != len(items) {
		return out, fmt.Errorf("got %d decisions for %d items", len(out), len(items))
	}
	return out, nil
}

// submitWire is Submit over the binary wire protocol: the batch is
// appended into one pooled framed body (count header plus one request
// frame per item), posted with the wire Content-Type, and the framed
// decision stream is read back with a FrameScanner — exactly one decision
// frame per item, a clean EOF after the last, anything else is an error.
// Cancellation mirrors the JSON path: ctx closes the streaming body.
func (c *Client[Req, Dec]) submitWire(ctx context.Context, items []Req) ([]Dec, error) {
	wb := wire.GetBuffer()
	defer wire.PutBuffer(wb)
	wb.B = wire.AppendSubmitHeader(wb.B, len(items))
	for _, it := range items {
		wb.B = c.wire.AppendRequest(wb.B, it)
	}
	resp, err := c.post(ctx, wire.ContentType, wb.B)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	stop := context.AfterFunc(ctx, func() { resp.Body.Close() })
	defer stop()

	out := make([]Dec, 0, len(items))
	sc := wire.GetFrameScanner(resp.Body)
	defer wire.PutFrameScanner(sc)
	for len(out) < len(items) {
		payload, err := sc.Next()
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return out, cerr
			}
			if err == io.EOF {
				return out, fmt.Errorf("got %d decisions for %d items", len(out), len(items))
			}
			return out, fmt.Errorf("decoding decision frame %d: %v", len(out), err)
		}
		d, err := c.wire.DecodeDecision(payload)
		if err != nil {
			return out, fmt.Errorf("decoding decision frame %d: %v", len(out), err)
		}
		out = append(out, d)
	}
	if _, err := sc.Next(); err != io.EOF {
		if err == nil {
			return out, fmt.Errorf("trailing decision frames after %d items", len(items))
		}
		if cerr := ctx.Err(); cerr != nil {
			return out, cerr
		}
		return out, err
	}
	return out, nil
}

// post sends one submission body to the workload's route and returns the
// response once the server has answered 200. Any other status is closed
// and returned as the server's error text (the errorJSON body, else the
// status line).
func (c *Client[Req, Dec]) post(ctx context.Context, contentType string, body []byte) (*http.Response, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/"+c.workload, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", contentType)
	resp, err := c.hc.Do(hr)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		var e errorJSON
		_ = json.NewDecoder(resp.Body).Decode(&e)
		if e.Error == "" {
			e.Error = resp.Status
		}
		return nil, fmt.Errorf("server: %s", e.Error)
	}
	return resp, nil
}

// Stats fetches /v1/<workload>/stats and decodes it into out (a pointer to
// the workload's stats type, e.g. *StatsJSON or *CoverStatsJSON).
func (c *Client[Req, Dec]) Stats(ctx context.Context, out any) error {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/"+c.workload+"/stats", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server: %s", resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Metrics fetches the raw /metrics text.
func (c *Client[Req, Dec]) Metrics(ctx context.Context) (string, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := bufio.NewReader(resp.Body).WriteTo(&b); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("server: %s", resp.Status)
	}
	return b.String(), nil
}

// CloseIdle releases pooled connections.
func (c *Client[Req, Dec]) CloseIdle() { c.hc.CloseIdleConnections() }

// WaitHealthy polls /healthz until it answers 200 or the deadline passes;
// used against freshly started listeners.
func (c *Client[Req, Dec]) WaitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := c.hc.Get(c.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy after %v", c.base, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
