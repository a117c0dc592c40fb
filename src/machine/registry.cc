#include "machine/registry.hh"

#include <algorithm>
#include <filesystem>

#include "machine/configs.hh"
#include "machine/machine_desc.hh"
#include "support/logging.hh"

namespace gpsched
{

MachineRegistry::MachineRegistry()
{
    for (MachineConfig &preset : table1Configs())
        add(std::move(preset));
}

const MachineRegistry &
MachineRegistry::builtin()
{
    static const MachineRegistry registry;
    return registry;
}

std::vector<std::string>
MachineRegistry::names() const
{
    std::vector<std::string> names;
    names.reserve(configs_.size());
    for (const MachineConfig &config : configs_)
        names.push_back(config.name());
    return names;
}

std::string
MachineRegistry::namesSummary() const
{
    std::string summary;
    for (const MachineConfig &config : configs_) {
        if (!summary.empty())
            summary += "|";
        summary += config.name();
    }
    return summary;
}

const MachineConfig *
MachineRegistry::find(const std::string &name) const
{
    for (const MachineConfig &config : configs_) {
        if (config.name() == name)
            return &config;
    }
    return nullptr;
}

void
MachineRegistry::add(MachineConfig config)
{
    if (find(config.name()))
        GPSCHED_FATAL("duplicate machine name '", config.name(), "'");
    configs_.push_back(std::move(config));
}

MachineConfig
MachineRegistry::resolve(const std::string &name_or_path) const
{
    if (const MachineConfig *config = find(name_or_path))
        return *config;
    bool looks_like_path =
        name_or_path.find('/') != std::string::npos ||
        (name_or_path.size() > 8 &&
         name_or_path.compare(name_or_path.size() - 8, 8,
                              ".machine") == 0);
    if (looks_like_path)
        return loadMachineFile(name_or_path);
    GPSCHED_FATAL("unknown machine '", name_or_path,
                  "': not a registered name (known: ", namesSummary(),
                  ") and not a .machine file path");
}

const MachineConfig &
MachineRegistry::at(int i) const
{
    GPSCHED_ASSERT(i >= 0 && i < size(), "bad registry index ", i);
    return configs_[i];
}

std::vector<MachineConfig>
MachineRegistry::resolveDirectory(const std::string &dir) const
{
    std::vector<MachineConfig> machines;
    for (const std::string &file : machineFilesIn(dir))
        machines.push_back(resolve(file));
    return machines;
}

std::vector<std::string>
machineFilesIn(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec) {
        GPSCHED_FATAL("cannot read machine directory '", dir,
                      "': ", ec.message());
    }
    std::vector<fs::path> files;
    for (const auto &entry : it) {
        if (entry.path().extension() == ".machine")
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    return {files.begin(), files.end()};
}

} // namespace gpsched
