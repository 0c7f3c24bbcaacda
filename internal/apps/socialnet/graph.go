// Package socialnet models the DeathStarBench social-network application the
// BASS paper evaluates: 27 microservices (frontends, logic services, and
// their memcached/redis/mongodb stores) exchanging RPCs for three request
// types — read-home-timeline, read-user-timeline, and compose-post. Traffic
// between service pairs rides the simulated network as aggregate streams;
// per-request latency follows an M/M/1 channel model whose service rate is
// the bandwidth a message burst can attain on the routed path, so link
// throttling and trace-driven dips inflate tail latency exactly the way the
// paper's Figs 5, 11, 13, 14 and 16 show.
package socialnet

import "time"

// ClientComponent is the pinned workload-generator pseudo-component.
const ClientComponent = "load-gen"

// Service names (the 27 microservices of DeathStarBench's social network).
const (
	SvcNginx           = "nginx-web-server"
	SvcMediaFrontend   = "media-frontend"
	SvcComposePost     = "compose-post-service"
	SvcText            = "text-service"
	SvcUniqueID        = "unique-id-service"
	SvcURLShorten      = "url-shorten-service"
	SvcUserMention     = "user-mention-service"
	SvcUser            = "user-service"
	SvcMedia           = "media-service"
	SvcPostStorage     = "post-storage-service"
	SvcUserTimeline    = "user-timeline-service"
	SvcHomeTimeline    = "home-timeline-service"
	SvcSocialGraph     = "social-graph-service"
	SvcJaeger          = "jaeger"
	StoURLShortenMC    = "url-shorten-memcached"
	StoURLShortenMongo = "url-shorten-mongodb"
	StoUserMC          = "user-memcached"
	StoUserMongo       = "user-mongodb"
	StoMediaMC         = "media-memcached"
	StoMediaMongo      = "media-mongodb"
	StoPostStorageMC   = "post-storage-memcached"
	StoPostMongo       = "post-storage-mongodb"
	StoUserTLRedis     = "user-timeline-redis"
	StoUserTLMongo     = "user-timeline-mongodb"
	StoHomeTLRedis     = "home-timeline-redis"
	StoSocialRedis     = "social-graph-redis"
	StoSocialMongo     = "social-graph-mongodb"
)

// serviceSpec describes one microservice's resources and per-call compute
// time.
type serviceSpec struct {
	name    string
	cpu     float64
	memMB   float64
	svcTime time.Duration
}

// services returns the 27 microservices with resource requests sized like
// DeathStarBench's helm defaults (fractional cores, modest memory).
func services() []serviceSpec {
	ms := time.Millisecond
	return []serviceSpec{
		{SvcNginx, 1.0, 512, 1 * ms},
		{SvcMediaFrontend, 0.5, 256, 1 * ms},
		{SvcComposePost, 1.0, 512, 2 * ms},
		{SvcText, 0.5, 256, 1500 * time.Microsecond},
		{SvcUniqueID, 0.25, 128, 500 * time.Microsecond},
		{SvcURLShorten, 0.5, 256, 1 * ms},
		{SvcUserMention, 0.5, 256, 1 * ms},
		{SvcUser, 0.5, 512, 1500 * time.Microsecond},
		{SvcMedia, 0.5, 512, 2 * ms},
		{SvcPostStorage, 1.0, 1024, 2 * ms},
		{SvcUserTimeline, 0.75, 512, 2 * ms},
		{SvcHomeTimeline, 0.75, 512, 2 * ms},
		{SvcSocialGraph, 0.5, 512, 1500 * time.Microsecond},
		{SvcJaeger, 0.5, 512, 0},
		{StoURLShortenMC, 0.25, 512, 300 * time.Microsecond},
		{StoURLShortenMongo, 0.5, 1024, 2 * ms},
		{StoUserMC, 0.25, 512, 300 * time.Microsecond},
		{StoUserMongo, 0.5, 1024, 2 * ms},
		{StoMediaMC, 0.25, 512, 300 * time.Microsecond},
		{StoMediaMongo, 0.5, 1024, 2 * ms},
		{StoPostStorageMC, 0.25, 512, 300 * time.Microsecond},
		{StoPostMongo, 0.5, 1024, 2 * ms},
		{StoUserTLRedis, 0.25, 512, 300 * time.Microsecond},
		{StoUserTLMongo, 0.5, 1024, 2 * ms},
		{StoHomeTLRedis, 0.25, 512, 300 * time.Microsecond},
		{StoSocialRedis, 0.25, 512, 300 * time.Microsecond},
		{StoSocialMongo, 0.5, 1024, 2 * ms},
	}
}

// hop is one RPC in a request's call sequence: a request message from → to
// and a response back. Async hops (tracing spans) carry traffic but do not
// add to request latency.
type hop struct {
	from, to string
	reqKB    float64
	respKB   float64
	async    bool

	// Resolved once by New, so a request reads no name-keyed table: the
	// hop's channel, the callee's service time and the dense indices of both
	// components (App.components order).
	ch             *channel
	svc            time.Duration
	fromIdx, toIdx int
}

// requestType is one of the workload mix's request classes.
type requestType struct {
	name string
	frac float64
	hops []hop
}

// requestTypes returns the paper-style mixed workload: 60% home-timeline
// reads, 30% user-timeline reads, 10% post composition (with media).
func requestTypes() []requestType {
	return []requestType{
		{
			name: "read-home-timeline",
			frac: 0.60,
			hops: []hop{
				{from: ClientComponent, to: SvcNginx, reqKB: 0.5, respKB: 20},
				{from: SvcNginx, to: SvcHomeTimeline, reqKB: 0.5, respKB: 18},
				{from: SvcHomeTimeline, to: StoHomeTLRedis, reqKB: 0.3, respKB: 1.5},
				{from: SvcHomeTimeline, to: SvcPostStorage, reqKB: 1.0, respKB: 16},
				{from: SvcPostStorage, to: StoPostStorageMC, reqKB: 1.0, respKB: 12},
				{from: SvcPostStorage, to: StoPostMongo, reqKB: 0.5, respKB: 6},
				{from: SvcNginx, to: SvcJaeger, reqKB: 1.0, respKB: 0, async: true},
			},
		},
		{
			name: "read-user-timeline",
			frac: 0.30,
			hops: []hop{
				{from: ClientComponent, to: SvcNginx, reqKB: 0.5, respKB: 20},
				{from: SvcNginx, to: SvcUserTimeline, reqKB: 0.5, respKB: 18},
				{from: SvcUserTimeline, to: StoUserTLRedis, reqKB: 0.3, respKB: 1.5},
				{from: SvcUserTimeline, to: StoUserTLMongo, reqKB: 0.5, respKB: 4},
				{from: SvcUserTimeline, to: SvcPostStorage, reqKB: 1.0, respKB: 16},
				{from: SvcPostStorage, to: StoPostStorageMC, reqKB: 1.0, respKB: 12},
				{from: SvcNginx, to: SvcJaeger, reqKB: 1.0, respKB: 0, async: true},
			},
		},
		{
			name: "compose-post",
			frac: 0.10,
			hops: []hop{
				{from: ClientComponent, to: SvcNginx, reqKB: 2, respKB: 1},
				{from: SvcNginx, to: SvcMediaFrontend, reqKB: 30, respKB: 0.5},
				{from: SvcMediaFrontend, to: SvcMedia, reqKB: 30, respKB: 0.5},
				{from: SvcMedia, to: StoMediaMongo, reqKB: 30, respKB: 0.5},
				{from: SvcMedia, to: StoMediaMC, reqKB: 5, respKB: 0.2},
				{from: SvcNginx, to: SvcComposePost, reqKB: 2, respKB: 0.5},
				{from: SvcComposePost, to: SvcUniqueID, reqKB: 0.2, respKB: 0.2},
				{from: SvcComposePost, to: SvcText, reqKB: 1.5, respKB: 1},
				{from: SvcText, to: SvcURLShorten, reqKB: 0.5, respKB: 0.5},
				{from: SvcURLShorten, to: StoURLShortenMC, reqKB: 0.3, respKB: 0.2},
				{from: SvcURLShorten, to: StoURLShortenMongo, reqKB: 0.4, respKB: 0.2},
				{from: SvcText, to: SvcUserMention, reqKB: 0.5, respKB: 0.5},
				{from: SvcUserMention, to: StoUserMC, reqKB: 0.3, respKB: 0.3},
				{from: SvcComposePost, to: SvcUser, reqKB: 0.5, respKB: 0.5},
				{from: SvcUser, to: StoUserMongo, reqKB: 0.5, respKB: 0.5},
				{from: SvcComposePost, to: SvcPostStorage, reqKB: 3, respKB: 0.3},
				{from: SvcPostStorage, to: StoPostMongo, reqKB: 3, respKB: 0.2},
				{from: SvcComposePost, to: SvcHomeTimeline, reqKB: 0.5, respKB: 0.2},
				{from: SvcHomeTimeline, to: SvcSocialGraph, reqKB: 0.3, respKB: 2},
				{from: SvcSocialGraph, to: StoSocialRedis, reqKB: 0.3, respKB: 1.5},
				{from: SvcSocialGraph, to: StoSocialMongo, reqKB: 0.3, respKB: 0.5},
				{from: SvcHomeTimeline, to: StoHomeTLRedis, reqKB: 1.5, respKB: 0.2},
				{from: SvcComposePost, to: SvcUserTimeline, reqKB: 0.5, respKB: 0.2},
				{from: SvcUserTimeline, to: StoUserTLRedis, reqKB: 1.5, respKB: 0.2},
				{from: SvcUserTimeline, to: StoUserTLMongo, reqKB: 1.5, respKB: 0.2},
				{from: SvcNginx, to: SvcJaeger, reqKB: 1.5, respKB: 0, async: true},
			},
		},
	}
}

// edgeKey identifies a directed caller→callee channel.
type edgeKey struct {
	from, to string
}

// edgeLoad is the profiled traffic on one channel at a reference rate.
// Requests flow caller→callee; responses flow callee→caller. The two
// directions are tracked separately because tc-style egress shaping (the
// paper's experiments) throttles them independently.
type edgeLoad struct {
	// msgsPerReq is the expected number of RPCs per workload request.
	msgsPerReq float64
	// reqKBPerReq / respKBPerReq are the expected KB per workload request in
	// each direction.
	reqKBPerReq  float64
	respKBPerReq float64
}

// aggregateLoads folds the request mix into per-channel expectations.
func aggregateLoads() map[edgeKey]edgeLoad {
	out := make(map[edgeKey]edgeLoad)
	for _, rt := range requestTypes() {
		for _, h := range rt.hops {
			k := edgeKey{from: h.from, to: h.to}
			l := out[k]
			l.msgsPerReq += rt.frac
			l.reqKBPerReq += rt.frac * h.reqKB
			l.respKBPerReq += rt.frac * h.respKB
			out[k] = l
		}
	}
	return out
}
