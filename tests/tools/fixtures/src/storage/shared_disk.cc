// Lint fixture: the same mutating calls as disk_writer_bad.cc, but in
// the whitelisted SharedDiskQueue implementation TU — no findings.

struct FakeQueue {
  void ServeBatch(int); void ServeOne(int); void TryServeBatch(int);
  void TryServeOne(int); void Reset();
};

void ServingLayer(FakeQueue* shared_disk_, int p) {
  shared_disk_->ServeBatch(p);
  shared_disk_->ServeOne(p);
  shared_disk_->TryServeBatch(p);
  shared_disk_->TryServeOne(p);
  shared_disk_->Reset();
}
