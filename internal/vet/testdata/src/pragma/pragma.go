// Fixture for //crackvet:ignore handling: a correctly named pragma
// suppresses (and is counted), a wrong checker name does not.
package pragma

import "sync"

type S struct{ mu sync.Mutex }

func (s *S) suppressed() {
	//crackvet:ignore lockpair fixture exercising the suppression pragma
	s.mu.Lock()
}

func (s *S) wrongCheckerName() {
	//crackvet:ignore frozenversion a wrong checker name must not silence lockpair
	s.mu.Lock() // want "not released before the function returns"
}
