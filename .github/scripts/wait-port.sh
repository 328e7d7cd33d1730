#!/usr/bin/env bash
# wait-port.sh HOST PORT [SECONDS]
#
# Blocks until HOST:PORT accepts a TCP connection, or fails after SECONDS
# (default 30). The daemon smoke jobs call this after starting crackserved
# in the background: a fixed sleep turns a slow runner's start-up race into
# a red build, a bounded poll on the listen port does not.
set -u
host=$1
port=$2
limit=${3:-30}
deadline=$((SECONDS + limit))
until (exec 3<>"/dev/tcp/$host/$port") 2>/dev/null; do
  if [ "$SECONDS" -ge "$deadline" ]; then
    echo "wait-port: $host:$port not accepting connections after ${limit}s" >&2
    exit 1
  fi
  sleep 0.1
done
