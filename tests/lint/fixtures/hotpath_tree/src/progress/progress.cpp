// Fixture tree: poses as a hot-path file (src/progress/progress.cpp) whose
// clock reads are each annotated with why they are off the common path, so
// hotpath-clock stays quiet. Comments that name now_ns() or rdtsc are not
// code and never match. Scanned with --root at the fixture tree.
// expect: clean
bool expired(std::uint64_t deadline_ns) {
  // lint: allow(hotpath-clock) fixture: read only when a deadline is set
  return deadline_ns != 0 && now_ns() >= deadline_ns;
}
void track(Tracker* tracker, Packet& pkt) {
  tracker->track(pkt, now_ns());  // lint: allow(hotpath-clock) fixture: rto start
}
