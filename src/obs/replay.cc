/**
 * @file
 * StopAtSeqSink (see replay.h for the replay architecture).
 */
#include "obs/replay.h"

namespace cherisem::obs {

void
StopAtSeqSink::write(const TraceEvent &e)
{
    if (stopped_)
        return; // the stop has fired once already
    events_.push_back(e);
    if (inner_)
        inner_->emit(e);
    if (e.seq >= stopAfter_) {
        stopped_ = true;
        throw ReplayStop{e.seq};
    }
}

} // namespace cherisem::obs
