/**
 * @file
 * Argument helpers the command-line front-ends (last_obs, last_sweep,
 * last_serve) share.
 */

#ifndef LAST_TOOLS_CLI_ARGS_HH
#define LAST_TOOLS_CLI_ARGS_HH

#include <string>
#include <vector>

namespace last::cli
{

/** Pull `--flag value` out of args (erasing it); @return defaulted. */
inline std::string
takeOption(std::vector<std::string> &args, const std::string &flag,
           const std::string &dflt)
{
    for (size_t i = 0; i + 1 < args.size(); ++i) {
        if (args[i] == flag) {
            std::string v = args[i + 1];
            args.erase(args.begin() + i, args.begin() + i + 2);
            return v;
        }
    }
    return dflt;
}

/** Pull a bare `--flag` out of args. @return whether it was present. */
inline bool
takeFlag(std::vector<std::string> &args, const std::string &flag)
{
    for (size_t i = 0; i < args.size(); ++i) {
        if (args[i] == flag) {
            args.erase(args.begin() + i);
            return true;
        }
    }
    return false;
}

} // namespace last::cli

#endif // LAST_TOOLS_CLI_ARGS_HH
