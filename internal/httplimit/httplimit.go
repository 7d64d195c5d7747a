// Package httplimit holds the limits an HTTP server in the tree (ebaserve,
// and the sweep coordinator the benchmark runs in process) puts on what a
// client can make it wait for or read: a bound on how long request
// headers may take to arrive, and a bound on how much of a request body a
// handler will buffer.
package httplimit

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"
)

const (
	// HeaderTimeout is how long a daemon waits for a client to finish its
	// request headers before dropping the connection.
	HeaderTimeout = 30 * time.Second
	// MaxJSONBody bounds a JSON request body. The largest request any
	// server takes — a sweep, check or knowledge query — is well under a
	// kilobyte.
	MaxJSONBody = 1 << 20
)

// NewServer returns an http.Server for h that gives up on a connection
// whose request headers have not arrived within headerTimeout, so idle or
// trickling clients cannot pin connections forever.
func NewServer(h http.Handler, headerTimeout time.Duration) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: headerTimeout}
}

// bound returns r's body cut off at limit bytes. A request that declares
// more is refused before any of it is read; one that delivers more fails
// the read that crosses the limit, after which the server closes the
// connection. Either way the error is an *http.MaxBytesError.
func bound(w http.ResponseWriter, r *http.Request, limit int64) (io.ReadCloser, error) {
	if r.ContentLength > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	return http.MaxBytesReader(w, r.Body, limit), nil
}

// DecodeJSON decodes r's JSON body, of at most MaxJSONBody bytes, into v.
// The body must be that one value: anything but white space after it is
// an error, so what a daemon acts on is all the client sent.
func DecodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	body, err := bound(w, r, MaxJSONBody)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(body)
	if err := dec.Decode(v); err != nil {
		return err
	}
	switch _, err := dec.Token(); {
	case errors.Is(err, io.EOF):
		return nil
	case err != nil:
		return err
	default:
		return errors.New("data after the JSON value")
	}
}
