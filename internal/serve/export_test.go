package serve

// SetCached stores val under key exactly as given — how a test plants an
// entry that does not decode, which no serving path ever writes.
func (e *Engine) SetCached(key string, val []byte) { e.cache.Set(key, val) }

// FlightFollowers is flightFollowers for the package's external tests.
var FlightFollowers = flightFollowers
