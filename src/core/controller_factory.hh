/**
 * @file
 * The one place a controller flavour becomes a controller object. Device
 * assemblies, benches, examples and tests all build their channel
 * controllers here, so the set of flavours and their spellings is
 * defined once.
 */

#ifndef BABOL_CORE_CONTROLLER_FACTORY_HH
#define BABOL_CORE_CONTROLLER_FACTORY_HH

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/controller.hh"

namespace babol::core {

/** The controller designs the paper compares (§VI). Tests encode the
 *  enumerator values in their parameter names: append, never reorder. */
enum class Flavor
{
    Coro,    //!< BABOL, coroutine software environment
    Rtos,    //!< BABOL, RTOS software environment
    HwSync,  //!< fixed-function [50]-style synchronous design
    HwAsync, //!< fixed-function Cosmos+-style asynchronous design
};

/** The spellings parseFlavor() accepts, for usage messages. */
inline constexpr const char *kFlavorChoices =
    "coro|rtos|hw|hw-sync|hw-async";

/** "coro", "rtos", "hw-sync", "hw-async", or "hw" (the asynchronous
 *  design); nullopt for anything else. */
std::optional<Flavor> parseFlavor(std::string_view name);

/** parseFlavor(), raising SimFatal on an unknown name. */
Flavor flavorOrFatal(std::string_view name);

/** Canonical spelling: parseFlavor(flavorName(f)) == f. */
const char *flavorName(Flavor f);

/**
 * A configuration field that holds a Flavor. It may also be set from a
 * spelling, which is parsed right there, once (fatal() on an unknown
 * name), so configs written by name keep working.
 */
class FlavorSetting
{
  public:
    FlavorSetting(Flavor f = Flavor::Coro) : flavor_(f) {}
    FlavorSetting(const char *name) : flavor_(flavorOrFatal(name)) {}
    FlavorSetting(const std::string &name) : flavor_(flavorOrFatal(name)) {}

    operator Flavor() const { return flavor_; }

  private:
    Flavor flavor_;
};

/**
 * Build one channel controller. @p soft configures the software
 * flavours' runtime; its read-retry budget also arms the hardware READ
 * FSM (the RTL respin HwController::setMaxReadRetries models).
 */
std::unique_ptr<ChannelController>
makeController(Flavor flavor, EventQueue &eq, const std::string &name,
               ChannelSystem &sys, const SoftControllerConfig &soft = {});

} // namespace babol::core

#endif // BABOL_CORE_CONTROLLER_FACTORY_HH
