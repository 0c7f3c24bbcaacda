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

// clientComponent is the pinned workload-generator pseudo-component.
const clientComponent = "load-gen"

// Service names (the 27 microservices of DeathStarBench's social network).
const (
	SvcNginx           = "nginx-web-server"
	svcMediaFrontend   = "media-frontend"
	svcComposePost     = "compose-post-service"
	svcText            = "text-service"
	svcUniqueID        = "unique-id-service"
	svcURLShorten      = "url-shorten-service"
	svcUserMention     = "user-mention-service"
	svcUser            = "user-service"
	svcMedia           = "media-service"
	SvcPostStorage     = "post-storage-service"
	svcUserTimeline    = "user-timeline-service"
	svcHomeTimeline    = "home-timeline-service"
	svcSocialGraph     = "social-graph-service"
	svcJaeger          = "jaeger"
	stoURLShortenMC    = "url-shorten-memcached"
	stoURLShortenMongo = "url-shorten-mongodb"
	stoUserMC          = "user-memcached"
	stoUserMongo       = "user-mongodb"
	stoMediaMC         = "media-memcached"
	stoMediaMongo      = "media-mongodb"
	stoPostStorageMC   = "post-storage-memcached"
	stoPostMongo       = "post-storage-mongodb"
	stoUserTLRedis     = "user-timeline-redis"
	stoUserTLMongo     = "user-timeline-mongodb"
	stoHomeTLRedis     = "home-timeline-redis"
	stoSocialRedis     = "social-graph-redis"
	stoSocialMongo     = "social-graph-mongodb"
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
		{svcMediaFrontend, 0.5, 256, 1 * ms},
		{svcComposePost, 1.0, 512, 2 * ms},
		{svcText, 0.5, 256, 1500 * time.Microsecond},
		{svcUniqueID, 0.25, 128, 500 * time.Microsecond},
		{svcURLShorten, 0.5, 256, 1 * ms},
		{svcUserMention, 0.5, 256, 1 * ms},
		{svcUser, 0.5, 512, 1500 * time.Microsecond},
		{svcMedia, 0.5, 512, 2 * ms},
		{SvcPostStorage, 1.0, 1024, 2 * ms},
		{svcUserTimeline, 0.75, 512, 2 * ms},
		{svcHomeTimeline, 0.75, 512, 2 * ms},
		{svcSocialGraph, 0.5, 512, 1500 * time.Microsecond},
		{svcJaeger, 0.5, 512, 0},
		{stoURLShortenMC, 0.25, 512, 300 * time.Microsecond},
		{stoURLShortenMongo, 0.5, 1024, 2 * ms},
		{stoUserMC, 0.25, 512, 300 * time.Microsecond},
		{stoUserMongo, 0.5, 1024, 2 * ms},
		{stoMediaMC, 0.25, 512, 300 * time.Microsecond},
		{stoMediaMongo, 0.5, 1024, 2 * ms},
		{stoPostStorageMC, 0.25, 512, 300 * time.Microsecond},
		{stoPostMongo, 0.5, 1024, 2 * ms},
		{stoUserTLRedis, 0.25, 512, 300 * time.Microsecond},
		{stoUserTLMongo, 0.5, 1024, 2 * ms},
		{stoHomeTLRedis, 0.25, 512, 300 * time.Microsecond},
		{stoSocialRedis, 0.25, 512, 300 * time.Microsecond},
		{stoSocialMongo, 0.5, 1024, 2 * ms},
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

	// The hop's last hopLatency, valid while the placement epoch (memoNodes)
	// and the network's rate epoch (memoRate) both hold. A hop with a
	// saturated direction is never memoised: its queue delay moves with time.
	memoOK              bool
	memoNodes, memoRate uint64
	memo                time.Duration
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
				{from: clientComponent, to: SvcNginx, reqKB: 0.5, respKB: 20},
				{from: SvcNginx, to: svcHomeTimeline, reqKB: 0.5, respKB: 18},
				{from: svcHomeTimeline, to: stoHomeTLRedis, reqKB: 0.3, respKB: 1.5},
				{from: svcHomeTimeline, to: SvcPostStorage, reqKB: 1.0, respKB: 16},
				{from: SvcPostStorage, to: stoPostStorageMC, reqKB: 1.0, respKB: 12},
				{from: SvcPostStorage, to: stoPostMongo, reqKB: 0.5, respKB: 6},
				{from: SvcNginx, to: svcJaeger, reqKB: 1.0, respKB: 0, async: true},
			},
		},
		{
			name: "read-user-timeline",
			frac: 0.30,
			hops: []hop{
				{from: clientComponent, to: SvcNginx, reqKB: 0.5, respKB: 20},
				{from: SvcNginx, to: svcUserTimeline, reqKB: 0.5, respKB: 18},
				{from: svcUserTimeline, to: stoUserTLRedis, reqKB: 0.3, respKB: 1.5},
				{from: svcUserTimeline, to: stoUserTLMongo, reqKB: 0.5, respKB: 4},
				{from: svcUserTimeline, to: SvcPostStorage, reqKB: 1.0, respKB: 16},
				{from: SvcPostStorage, to: stoPostStorageMC, reqKB: 1.0, respKB: 12},
				{from: SvcNginx, to: svcJaeger, reqKB: 1.0, respKB: 0, async: true},
			},
		},
		{
			name: "compose-post",
			frac: 0.10,
			hops: []hop{
				{from: clientComponent, to: SvcNginx, reqKB: 2, respKB: 1},
				{from: SvcNginx, to: svcMediaFrontend, reqKB: 30, respKB: 0.5},
				{from: svcMediaFrontend, to: svcMedia, reqKB: 30, respKB: 0.5},
				{from: svcMedia, to: stoMediaMongo, reqKB: 30, respKB: 0.5},
				{from: svcMedia, to: stoMediaMC, reqKB: 5, respKB: 0.2},
				{from: SvcNginx, to: svcComposePost, reqKB: 2, respKB: 0.5},
				{from: svcComposePost, to: svcUniqueID, reqKB: 0.2, respKB: 0.2},
				{from: svcComposePost, to: svcText, reqKB: 1.5, respKB: 1},
				{from: svcText, to: svcURLShorten, reqKB: 0.5, respKB: 0.5},
				{from: svcURLShorten, to: stoURLShortenMC, reqKB: 0.3, respKB: 0.2},
				{from: svcURLShorten, to: stoURLShortenMongo, reqKB: 0.4, respKB: 0.2},
				{from: svcText, to: svcUserMention, reqKB: 0.5, respKB: 0.5},
				{from: svcUserMention, to: stoUserMC, reqKB: 0.3, respKB: 0.3},
				{from: svcComposePost, to: svcUser, reqKB: 0.5, respKB: 0.5},
				{from: svcUser, to: stoUserMongo, reqKB: 0.5, respKB: 0.5},
				{from: svcComposePost, to: SvcPostStorage, reqKB: 3, respKB: 0.3},
				{from: SvcPostStorage, to: stoPostMongo, reqKB: 3, respKB: 0.2},
				{from: svcComposePost, to: svcHomeTimeline, reqKB: 0.5, respKB: 0.2},
				{from: svcHomeTimeline, to: svcSocialGraph, reqKB: 0.3, respKB: 2},
				{from: svcSocialGraph, to: stoSocialRedis, reqKB: 0.3, respKB: 1.5},
				{from: svcSocialGraph, to: stoSocialMongo, reqKB: 0.3, respKB: 0.5},
				{from: svcHomeTimeline, to: stoHomeTLRedis, reqKB: 1.5, respKB: 0.2},
				{from: svcComposePost, to: svcUserTimeline, reqKB: 0.5, respKB: 0.2},
				{from: svcUserTimeline, to: stoUserTLRedis, reqKB: 1.5, respKB: 0.2},
				{from: svcUserTimeline, to: stoUserTLMongo, reqKB: 1.5, respKB: 0.2},
				{from: SvcNginx, to: svcJaeger, reqKB: 1.5, respKB: 0, async: true},
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
