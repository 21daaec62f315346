#include "support/source_loc.h"

namespace cherisem {

FileName
makeFileName(std::string name)
{
    return std::make_shared<const std::string>(std::move(name));
}

const std::string &
SourceLoc::fileName() const
{
    static const std::string none;
    return file ? *file : none;
}

std::string
SourceLoc::str() const
{
    if (!isKnown())
        return "<unknown>";
    const std::string &name = fileName();
    std::string out = name.empty() ? std::string("<input>") : name;
    out += ':';
    out += std::to_string(line);
    out += ':';
    out += std::to_string(column);
    return out;
}

bool
SourceLoc::operator==(const SourceLoc &o) const
{
    return line == o.line && column == o.column &&
        (file == o.file || fileName() == o.fileName());
}

} // namespace cherisem
