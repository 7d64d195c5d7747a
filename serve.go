package eba

import "repro/internal/serve"

// The serving layer: a long-running HTTP daemon (cmd/ebaserve) exposing
// the Runner and the model checker as a service. Sweep responses are
// byte-identical to ebashard's stripe streams, check responses to the
// shared WriteVerdicts block; check and knowledge queries are answered
// from an LRU of built Systems with singleflight deduplication, backed
// by the result cache when one is configured. Admission control bounds
// in-flight requests (429 past the limit), concurrent builds, and
// per-request parallelism; Drain turns SIGTERM into a graceful
// finish-what-you-started shutdown; /metrics exposes the counters in
// the Prometheus text format.

// ServerConfig configures NewServer; the zero value serves with
// defaults.
type ServerConfig = serve.Config

// Server answers sweep, check, and knowledge requests over HTTP.
type Server = serve.Server

// NewServer validates the config and returns a ready serving layer;
// mount its Handler on an http.Server.
func NewServer(cfg ServerConfig) *Server { return serve.NewServer(cfg) }

// Serving request/response bodies, one pair per endpoint.
type (
	SweepRequest      = serve.SweepRequest
	CheckRequest      = serve.CheckRequest
	KnowledgeRequest  = serve.KnowledgeRequest
	KnowledgeResponse = serve.KnowledgeResponse
)

// ServeVerdictHeader is the response header naming a check's outcome
// ("ok" or "failed").
const ServeVerdictHeader = serve.VerdictHeader

// Knowledge query kinds accepted by KnowledgeRequest.Query.
const (
	QueryExists      = serve.QueryExists
	QueryKnowsExists = serve.QueryKnowsExists
	QueryKnowsCK     = serve.QueryKnowsCK
	QueryNonfaulty   = serve.QueryNonfaulty
	QueryDecided     = serve.QueryDecided
)
