#include "phy/radio.hpp"

#include <utility>

namespace spider::phy {

Radio::Radio(Medium& medium, wire::MacAddress mac, PositionFn position,
             RadioConfig config)
    : medium_(medium),
      mac_(mac),
      position_(std::move(position)),
      config_(config) {
  medium_.attach(*this);
}

Radio::~Radio() {
  tx_event_.cancel();
  switch_event_.cancel();
  medium_.detach(*this);
}

void Radio::tune(wire::Channel channel, std::function<void()> done) {
  // The latest request wins; a superseded tune's completion callback is
  // dropped (its requester has moved on).
  switch_event_.cancel();
  pending_tune_ = PendingTune{channel, std::move(done)};
  if (resetting_) {
    // Mid-reset retarget: restart the reset toward the new channel.
    begin_reset();
  } else if (!tx_busy_ && tx_queue_.empty()) {
    begin_reset();
  }
  // Otherwise pump_tx() starts the reset once the queue drains.
}

void Radio::begin_reset() {
  resetting_ = true;
  ++switches_;
  switch_airtime_ += config_.switch_latency;
  switch_event_ = medium_.simulator().schedule(config_.switch_latency, [this] {
    PendingTune tune = std::move(*pending_tune_);
    pending_tune_.reset();
    const wire::Channel old_channel = channel_;
    channel_ = tune.channel;
    resetting_ = false;
    // The medium's channel index tracks channel_ exactly: membership moves
    // at the instant the retune completes, never while frames for the old
    // channel are still addressed to this radio's grid entry.
    if (channel_ != old_channel) medium_.retune(*this, old_channel);
    pump_tx();
    if (tune.done) tune.done();
  });
}

void Radio::send(wire::Frame frame) {
  if (switching()) {
    // Traffic submitted during a switch would hit the wrong channel.
    ++dropped_switching_;
    return;
  }
  frame.src = frame.src.is_null() ? mac_ : frame.src;
  tx_queue_.push_back(std::move(frame));
  pump_tx();
}

void Radio::pump_tx() {
  if (tx_busy_ || resetting_) return;
  if (tx_queue_.empty()) {
    if (pending_tune_) begin_reset();
    return;
  }
  tx_busy_ = true;
  wire::Frame frame = std::move(tx_queue_.front());
  tx_queue_.pop_front();
  const Time occupancy = Medium::airtime(frame.size_bytes, config_.phy_rate);
  tx_airtime_ += occupancy;
  tx_bytes_ += frame.size_bytes;
  medium_.transmit(*this, std::move(frame));
  tx_event_ = medium_.simulator().schedule(occupancy, [this] {
    tx_busy_ = false;
    pump_tx();
  });
}

void Radio::deliver(const wire::Frame& frame) {
  if (receiver_) receiver_(frame);
}

}  // namespace spider::phy
