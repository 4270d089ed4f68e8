# Runs TOOL with the arguments after "--" on a malformed input and
# requires what it must give: exit status 2 and "parse error" on stderr,
# never an abort.
#   cmake -DTOOL=<binary> -P expect_parse_error.cmake -- <tool arguments>
set(STATUS 2)
set(STDERR "parse error")
include("${CMAKE_CURRENT_LIST_DIR}/expect_run.cmake")
