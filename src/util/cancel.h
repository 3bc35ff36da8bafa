/**
 * @file
 * Cooperative cancellation flag shared between a caller and a
 * long-running loop: a compression run (api::Session::run) or a
 * serving request (serve::InferenceEngine, serve::BatchScheduler).
 * Loops check it at their own boundaries (layer / stage, decode step),
 * never mid-kernel. Lives in util/ so serve/ and api/ share one type
 * without either pulling in the other's headers.
 */

#ifndef EDKM_UTIL_CANCEL_H_
#define EDKM_UTIL_CANCEL_H_

#include <atomic>

namespace edkm {

class CancelToken
{
  public:
    void requestCancel() { cancelled_.store(true); }
    bool cancelled() const { return cancelled_.load(); }

  private:
    std::atomic<bool> cancelled_{false};
};

} // namespace edkm

#endif // EDKM_UTIL_CANCEL_H_
