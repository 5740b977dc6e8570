package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"admission/internal/wire"
)

// Workload is the route name backends serve the cluster protocol under
// (POST /v1/cluster); the server glue registers it by this name.
const Workload = "cluster"

// RetryPolicy bounds the client's retry loop. Only exchanges that are
// provably safe to repeat are retried: refusals the backend issued before
// accepting the submission (ErrUnavailable, ErrRateLimited). Indeterminate
// exchanges (ErrInterrupted) are never retried — re-sending possibly
// applied operations would corrupt the decision history — and permanent
// refusals (ErrRejected, ErrProtocol) cannot succeed.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts (0 means 4; 1 disables
	// retrying).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff: attempt k waits up to
	// BaseDelay<<k (0 means 5ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff before jitter (0 means 250ms).
	MaxDelay time.Duration
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts <= 0 {
		return 4
	}
	return p.MaxAttempts
}

func (p RetryPolicy) base() time.Duration {
	if p.BaseDelay <= 0 {
		return 5 * time.Millisecond
	}
	return p.BaseDelay
}

func (p RetryPolicy) max() time.Duration {
	if p.MaxDelay <= 0 {
		return 250 * time.Millisecond
	}
	return p.MaxDelay
}

// BackendStatsJSON is the /v1/cluster/stats response body — the backend's
// identity and applied history, which is what the router's admission and
// resync decisions read.
type BackendStatsJSON struct {
	// Fingerprint identifies the backend's engine configuration.
	Fingerprint string `json:"fingerprint"`
	// StateDigest is the engine's deterministic state digest as fixed-width
	// hex (meaningful at a quiescent point only).
	StateDigest string `json:"state_digest"`
	// Requests counts applied operations — the backend's history length,
	// the resync protocol's applied watermark.
	Requests int64 `json:"requests"`
	// Accepted counts granted offers and reservations.
	Accepted int64 `json:"accepted"`
	// Errors counts operations refused with an engine failure.
	Errors int64 `json:"errors"`
	// OpenTxs counts granted, unsettled transactions.
	OpenTxs int `json:"open_txs"`
	// Shards is the backend engine's shard count.
	Shards int `json:"shards"`
	// QueueDepth and Draining describe the serving pipeline.
	QueueDepth int  `json:"queue_depth"`
	Draining   bool `json:"draining"`
}

// Client submits cluster operations to one backend over the binary wire
// protocol, with retry (exponential backoff, jitter, Retry-After) for the
// refusals that are safe to repeat and sentinel classification for the
// rest. It is safe for concurrent use, though the router serializes
// per-backend traffic itself (order is the protocol's foundation).
type Client struct {
	base   string
	hc     *http.Client
	policy RetryPolicy

	// Injectable clocks for deterministic tests (set only before use).
	now   func() time.Time
	sleep func(context.Context, time.Duration) error
	rnd   func() float64
}

// NewClient creates a client for the backend at baseURL (e.g.
// "http://127.0.0.1:9001").
func NewClient(baseURL string, policy RetryPolicy) *Client {
	return &Client{
		base:   strings.TrimRight(baseURL, "/"),
		hc:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		policy: policy,
		now:    time.Now,
		sleep: func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
		rnd: defaultJitter(),
	}
}

// defaultJitter is a tiny deterministic-seedless generator (splitmix64
// over the clock) — jitter only decorrelates retry storms, it carries no
// algorithmic meaning, so crypto or shared-state PRNGs would be overkill.
func defaultJitter() func() float64 {
	state := uint64(time.Now().UnixNano())
	return func() float64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11) / (1 << 53)
	}
}

// Base returns the backend's base URL.
func (c *Client) Base() string { return c.base }

// CloseIdle releases pooled connections.
func (c *Client) CloseIdle() { c.hc.CloseIdleConnections() }

// Submit posts a batch of operations and returns one decision per
// operation, in order. Whole-exchange failures wrap exactly one sentinel
// (ErrUnavailable, ErrRateLimited, ErrRejected, ErrInterrupted,
// ErrProtocol); retryable ones are retried under the policy before being
// returned. Per-operation engine refusals arrive inside the decisions.
func (c *Client) Submit(ctx context.Context, ops []Op) ([]wire.AdmissionDecision, error) {
	wb := wire.GetBuffer()
	defer wire.PutBuffer(wb)
	wb.B = wire.AppendSubmitHeader(wb.B, len(ops))
	for _, op := range ops {
		var err error
		if wb.B, err = AppendOp(wb.B, op); err != nil {
			return nil, err
		}
	}
	var out []wire.AdmissionDecision
	err := c.retry(ctx, func() (time.Duration, error) {
		ds, retryAfter, err := c.exchange(ctx, wb.B, len(ops))
		out = ds
		return retryAfter, err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Stats fetches the backend's /v1/cluster/stats body, retrying
// unavailability under the policy (a stats probe is always safe to
// repeat).
func (c *Client) Stats(ctx context.Context) (BackendStatsJSON, error) {
	var out BackendStatsJSON
	err := c.retry(ctx, func() (time.Duration, error) {
		hr, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/"+Workload+"/stats", nil)
		if err != nil {
			return 0, fmt.Errorf("%w: %v", ErrRejected, err)
		}
		resp, err := c.hc.Do(hr)
		if err != nil {
			return 0, c.classifyTransport(ctx, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return classifyStatus(resp)
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return 0, fmt.Errorf("%w: decoding stats: %v", ErrProtocol, err)
		}
		return 0, nil
	})
	return out, err
}

// CheckFingerprint verifies the backend runs exactly the engine
// configuration the caller derived for its partition, returning
// ErrFingerprintMismatch otherwise.
func (c *Client) CheckFingerprint(ctx context.Context, want string) error {
	st, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	if st.Fingerprint != want {
		return fmt.Errorf("%w: backend %s reports %q, partition derives %q",
			ErrFingerprintMismatch, c.base, st.Fingerprint, want)
	}
	return nil
}

// retry runs one attempt function under the policy: retryable sentinel
// failures back off (exponential, jittered, floored by the server's
// Retry-After) and repeat; everything else returns immediately.
func (c *Client) retry(ctx context.Context, attempt func() (time.Duration, error)) error {
	for k := 0; ; k++ {
		retryAfter, err := attempt()
		if err == nil {
			return nil
		}
		if !(errors.Is(err, ErrUnavailable) || errors.Is(err, ErrRateLimited)) || k+1 >= c.policy.attempts() {
			return err
		}
		delay := c.policy.base() << k
		if delay > c.policy.max() || delay <= 0 {
			delay = c.policy.max()
		}
		// Jitter halves the floor, never the ceiling: delay ∈ [d/2, d].
		delay = delay/2 + time.Duration(c.rnd()*float64(delay/2))
		if retryAfter > delay {
			delay = retryAfter
		}
		if serr := c.sleep(ctx, delay); serr != nil {
			return serr
		}
	}
}

// exchange performs one submission attempt and classifies its failure.
func (c *Client) exchange(ctx context.Context, body []byte, count int) ([]wire.AdmissionDecision, time.Duration, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/"+Workload, bytes.NewReader(body))
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	hr.Header.Set("Content-Type", wire.ContentType)
	resp, err := c.hc.Do(hr)
	if err != nil {
		return nil, 0, c.classifyTransport(ctx, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		retryAfter, err := classifyStatus(resp)
		return nil, retryAfter, err
	}
	stop := context.AfterFunc(ctx, func() { resp.Body.Close() })
	defer stop()

	out := make([]wire.AdmissionDecision, 0, count)
	sc := wire.GetFrameScanner(resp.Body)
	defer wire.PutFrameScanner(sc)
	for len(out) < count {
		payload, err := sc.Next()
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, 0, cerr
			}
			// The stream ended or died before every decision arrived: the
			// submission reached the backend, so the outcome is unknown.
			return nil, 0, fmt.Errorf("%w: decision %d/%d: %v", ErrInterrupted, len(out), count, err)
		}
		tag, err := wire.Tag(payload)
		if err != nil {
			return nil, 0, fmt.Errorf("%w: %v", ErrProtocol, err)
		}
		if tag == wire.TagStreamError {
			msg, err := wire.DecodeStreamError(payload)
			if err != nil {
				return nil, 0, fmt.Errorf("%w: %v", ErrProtocol, err)
			}
			// The backend failed the batch server-side (fail-stop, drain
			// race): decisions may have been made before durability failed.
			return nil, 0, fmt.Errorf("%w: backend: %s", ErrInterrupted, msg)
		}
		var d wire.AdmissionDecision
		if err := wire.DecodeAdmissionDecision(payload, &d); err != nil {
			return nil, 0, fmt.Errorf("%w: decision %d: %v", ErrProtocol, len(out), err)
		}
		out = append(out, d)
	}
	if _, err := sc.Next(); err != io.EOF {
		if err == nil {
			return nil, 0, fmt.Errorf("%w: trailing frames after %d decisions", ErrProtocol, count)
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, 0, cerr
		}
		return nil, 0, fmt.Errorf("%w: after final decision: %v", ErrInterrupted, err)
	}
	return out, 0, nil
}

// classifyTransport maps an http.Client.Do failure onto the sentinel
// taxonomy: context errors pass through, dial failures (nothing was sent)
// are retryable unavailability, anything later is indeterminate.
func (c *Client) classifyTransport(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	var op *net.OpError
	if errors.As(err, &op) && op.Op == "dial" {
		return fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	return fmt.Errorf("%w: %v", ErrInterrupted, err)
}

// classifyStatus maps a non-200 response onto the sentinel taxonomy and
// extracts its Retry-After.
func classifyStatus(resp *http.Response) (time.Duration, error) {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e struct {
		Error string `json:"error"`
	}
	_ = json.Unmarshal(body, &e)
	if e.Error == "" {
		e.Error = resp.Status
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return parseRetryAfter(resp), fmt.Errorf("%w: %s", ErrRateLimited, e.Error)
	case resp.StatusCode == http.StatusBadGateway,
		resp.StatusCode == http.StatusServiceUnavailable,
		resp.StatusCode == http.StatusGatewayTimeout:
		// Refused before the submission was accepted (draining, proxy with
		// no live upstream): nothing applied, safe to retry.
		return parseRetryAfter(resp), fmt.Errorf("%w: %s", ErrUnavailable, e.Error)
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		return 0, fmt.Errorf("%w: %s", ErrRejected, e.Error)
	default:
		// An unclassified failure (500) gives no applied/not-applied
		// guarantee: treat as indeterminate.
		return 0, fmt.Errorf("%w: %s", ErrInterrupted, e.Error)
	}
}

// parseRetryAfter reads a Retry-After header as delay seconds (the only
// form the tier emits; HTTP-date is accepted nowhere).
func parseRetryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
