// Package client is the shared HTTP client layer for tools and daemons that
// talk to pdlserved: pdlquery/pdlpredict server modes, pdlworkerd
// registration and heartbeats, and the cluster master's platform fetches.
//
// It packages the three behaviours every caller needs and none should
// re-implement:
//
//   - conditional GET: the server content-hashes documents into strong
//     ETags, so a cached ETag turns repeat fetches into 304s;
//   - bounded reads: response bodies are limited (the mirror of the
//     server's MaxBytesReader) so a misbehaving peer cannot balloon a
//     client;
//   - retry with capped exponential backoff on transport errors and
//     502/503/504, honouring Retry-After when the server sends one.
//
// Retries assume idempotent requests. That holds for every endpoint this
// package is pointed at — pdlserved PUTs are content-hash deduped, worker
// registration and heartbeats are lease upserts, DELETE is naturally
// idempotent — and is the caller's responsibility otherwise.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Defaults mirror the server's own limits.
const (
	DefaultMaxBodyBytes = 8 << 20
	DefaultRetries      = 3
	DefaultBackoff      = 100 * time.Millisecond
	maxBackoff          = 5 * time.Second
	maxRetryAfter       = 30 * time.Second
)

// StatusError is a non-2xx response, carrying the server's structured error
// body when it sent one ({"error": ..., "problems": [...]}).
type StatusError struct {
	Code     int
	Message  string
	Problems []string
}

func (e *StatusError) Error() string {
	msg := e.Message
	if msg == "" {
		msg = http.StatusText(e.Code)
	}
	if len(e.Problems) > 0 {
		return fmt.Sprintf("server returned %d: %s (%s)", e.Code, msg, strings.Join(e.Problems, "; "))
	}
	return fmt.Sprintf("server returned %d: %s", e.Code, msg)
}

// IsStatus reports whether err is a StatusError with the given code.
func IsStatus(err error, code int) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == code
}

// Client wraps a base URL with the shared request behaviours.
type Client struct {
	base    string
	http    *http.Client
	maxBody int64
	retries int
	backoff time.Duration
	// sleep is swapped in tests to avoid real delays.
	sleep func(context.Context, time.Duration) error
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.http = h } }

// WithMaxBody bounds response body reads.
func WithMaxBody(n int64) Option { return func(c *Client) { c.maxBody = n } }

// WithRetry sets the retry count (attempts = retries+1) and initial backoff.
// retries=0 disables retrying.
func WithRetry(retries int, backoff time.Duration) Option {
	return func(c *Client) { c.retries = retries; c.backoff = backoff }
}

// New validates the base URL and builds a client.
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: invalid base URL %q: %v", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: base URL %q must be http or https", baseURL)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q has no host", baseURL)
	}
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		http:    &http.Client{Timeout: 30 * time.Second},
		maxBody: DefaultMaxBodyBytes,
		retries: DefaultRetries,
		backoff: DefaultBackoff,
		sleep:   sleepCtx,
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// Base returns the normalised base URL.
func (c *Client) Base() string { return c.base }

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retryable reports whether a response status is worth retrying: the server
// said "try later" (503 drain/read-only, 429 rate limit) or a gateway hop
// failed (502/504).
func retryable(code int) bool {
	switch code {
	case http.StatusBadGateway, http.StatusServiceUnavailable,
		http.StatusGatewayTimeout, http.StatusTooManyRequests:
		return true
	}
	return false
}

// do runs one request with retries. body is re-materialised per attempt.
// Returns the final response (2xx or 304) with its body fully read and
// closed, the raw bytes, or an error.
func (c *Client) do(ctx context.Context, method, path string, header http.Header, body []byte) (*http.Response, []byte, error) {
	var lastErr error
	backoff := c.backoff
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return nil, nil, fmt.Errorf("client: building request: %v", err)
		}
		for k, vs := range header {
			for _, v := range vs {
				req.Header.Add(k, v)
			}
		}
		resp, err := c.http.Do(req)
		var data []byte
		if err == nil {
			data, err = c.readBody(resp)
		}
		switch {
		case err != nil:
			lastErr = err
		case resp.StatusCode == http.StatusNotModified,
			resp.StatusCode >= 200 && resp.StatusCode < 300:
			return resp, data, nil
		case retryable(resp.StatusCode):
			lastErr = statusError(resp, data)
			if ra := retryAfter(resp); ra > backoff {
				backoff = ra
			}
		default:
			return nil, nil, statusError(resp, data)
		}
		if attempt >= c.retries || ctx.Err() != nil {
			return nil, nil, lastErr
		}
		if err := c.sleep(ctx, backoff); err != nil {
			return nil, nil, lastErr
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// readBody drains and closes the response body under the size limit.
func (c *Client) readBody(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, c.maxBody+1))
	if err != nil {
		return nil, fmt.Errorf("client: reading response: %v", err)
	}
	if int64(len(data)) > c.maxBody {
		return nil, fmt.Errorf("client: response exceeds %d byte limit", c.maxBody)
	}
	return data, nil
}

func retryAfter(resp *http.Response) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			d := time.Duration(secs) * time.Second
			if d > maxRetryAfter {
				d = maxRetryAfter
			}
			return d
		}
	}
	return 0
}

func statusError(resp *http.Response, data []byte) error {
	se := &StatusError{Code: resp.StatusCode}
	var body struct {
		Error    string   `json:"error"`
		Problems []string `json:"problems"`
	}
	if json.Unmarshal(data, &body) == nil && body.Error != "" {
		se.Message = body.Error
		se.Problems = body.Problems
	} else if len(data) > 0 {
		se.Message = strings.TrimSpace(string(data))
		if len(se.Message) > 200 {
			se.Message = se.Message[:200] + "..."
		}
	}
	return se
}

// GetJSON fetches path and decodes the JSON response into out (skipped when
// out is nil).
func (c *Client) GetJSON(ctx context.Context, path string, out any) error {
	_, _, err := c.GetJSONConditional(ctx, path, "", out)
	return err
}

// GetJSONConditional fetches path with If-None-Match when etag is non-empty.
// On 304 it reports notModified=true and leaves out untouched; otherwise it
// decodes into out and returns the response's ETag for the next call.
func (c *Client) GetJSONConditional(ctx context.Context, path, etag string, out any) (newETag string, notModified bool, err error) {
	var h http.Header
	if etag != "" {
		h = http.Header{"If-None-Match": {etag}}
	}
	resp, data, err := c.do(ctx, http.MethodGet, path, h, nil)
	if err != nil {
		return "", false, err
	}
	if resp.StatusCode == http.StatusNotModified {
		return etag, true, nil
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return "", false, fmt.Errorf("client: decoding %s response: %v", path, err)
		}
	}
	return resp.Header.Get("ETag"), false, nil
}

// GetBytesConditional fetches path raw with If-None-Match when etag is
// non-empty. On 304 it reports notModified=true with nil data; otherwise it
// returns the body and the response's ETag for the next call.
func (c *Client) GetBytesConditional(ctx context.Context, path, etag string) (data []byte, newETag string, notModified bool, err error) {
	var h http.Header
	if etag != "" {
		h = http.Header{"If-None-Match": {etag}}
	}
	resp, data, err := c.do(ctx, http.MethodGet, path, h, nil)
	if err != nil {
		return nil, "", false, err
	}
	if resp.StatusCode == http.StatusNotModified {
		return nil, etag, true, nil
	}
	return data, resp.Header.Get("ETag"), false, nil
}

// PostJSON sends in as a JSON body and decodes the response into out
// (either may be nil).
func (c *Client) PostJSON(ctx context.Context, path string, in, out any) error {
	var body []byte
	h := http.Header{"Content-Type": {"application/json"}}
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encoding %s body: %v", path, err)
		}
	}
	_, data, err := c.do(ctx, http.MethodPost, path, h, body)
	if err != nil {
		return err
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("client: decoding %s response: %v", path, err)
		}
	}
	return nil
}

// PutBytes uploads a raw document (platform XML) with the given content type.
func (c *Client) PutBytes(ctx context.Context, path, contentType string, body []byte) error {
	h := http.Header{"Content-Type": {contentType}}
	_, _, err := c.do(ctx, http.MethodPut, path, h, body)
	return err
}

// Delete issues a DELETE; 404 surfaces as a StatusError for callers that
// care (deregistering an expired lease is not an error worth retrying).
func (c *Client) Delete(ctx context.Context, path string) error {
	_, _, err := c.do(ctx, http.MethodDelete, path, nil, nil)
	return err
}
