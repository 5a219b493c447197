#include "controller_factory.hh"

#include "core/coro/coro_controller.hh"
#include "core/hw/hw_controller.hh"
#include "core/rtos_env/rtos_controller.hh"

namespace babol::core {

std::optional<Flavor>
parseFlavor(std::string_view name)
{
    if (name == "coro")
        return Flavor::Coro;
    if (name == "rtos")
        return Flavor::Rtos;
    if (name == "hw-sync")
        return Flavor::HwSync;
    if (name == "hw-async" || name == "hw")
        return Flavor::HwAsync;
    return std::nullopt;
}

Flavor
flavorOrFatal(std::string_view name)
{
    if (auto f = parseFlavor(name))
        return *f;
    fatal("unknown controller flavor '%.*s' (expected %s)",
          static_cast<int>(name.size()), name.data(), kFlavorChoices);
}

const char *
flavorName(Flavor f)
{
    switch (f) {
      case Flavor::Coro:
        return "coro";
      case Flavor::Rtos:
        return "rtos";
      case Flavor::HwSync:
        return "hw-sync";
      case Flavor::HwAsync:
        return "hw-async";
    }
    return "?";
}

std::unique_ptr<ChannelController>
makeController(Flavor flavor, EventQueue &eq, const std::string &name,
               ChannelSystem &sys, const SoftControllerConfig &soft)
{
    switch (flavor) {
      case Flavor::Coro:
        return std::make_unique<CoroController>(eq, name, sys, soft);
      case Flavor::Rtos:
        return std::make_unique<RtosController>(eq, name, sys, soft);
      case Flavor::HwSync:
      case Flavor::HwAsync: {
        auto hw = std::make_unique<HwController>(eq, name, sys,
                                                 flavor == Flavor::HwSync);
        hw->setMaxReadRetries(soft.maxReadRetries);
        return hw;
      }
    }
    panic("unhandled controller flavor %d", static_cast<int>(flavor));
}

} // namespace babol::core
